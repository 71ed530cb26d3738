//! The per-access metadata traffic engine.
//!
//! For every LLC-filtered data access, [`SecurityEngine::on_access`]
//! decides which *additional* memory transactions the secure-memory
//! design performs — MAC fetches, counter-tree walks, parity updates,
//! metadata writebacks — and returns them for the DRAM model to execute.
//! This is where every scheme of the paper differs:
//!
//! * **VAULT**: separate MAC structure (cached) + counter-tree walk.
//! * **Synergy**: MAC rides the ECC pins (free); per-block parity is
//!   written to memory on every data write.
//! * **Isolation**: tree indexed by per-enclave leaf-ids over a private
//!   tree, caches partitioned per enclave.
//! * **Shared parity**: parity updates become read-modify-writes.
//! * **Parity cache**: a write-coalescing buffer (never filled by reads).
//! * **ITESP**: parity lives inside the tree leaf — one structure, one
//!   fetch, no write masking.
//!
//! Verification latency is assumed hidden by speculation (PoisonIvy
//! [23]); the slowdown comes from the extra *bandwidth*, exactly the
//! paper's premise (Section I).

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};
use serde_json::FromValue;

use crate::cache::CacheStats;
use crate::error::EngineConfigError;
use crate::model::SchemeModel;
use crate::scheme::{ModelFamily, Scheme, SchemeSpec, TreeKind};
use crate::tree::TreeGeometry;

/// Which metadata structure a transaction belongs to (Figure 9's
/// breakdown categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetaKind {
    Mac,
    Tree,
    Parity,
}

impl MetaKind {
    pub const ALL: [MetaKind; 3] = [MetaKind::Mac, MetaKind::Tree, MetaKind::Parity];

    pub fn index(self) -> usize {
        match self {
            MetaKind::Mac => 0,
            MetaKind::Tree => 1,
            MetaKind::Parity => 2,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            MetaKind::Mac => "MAC",
            MetaKind::Tree => "Tree",
            MetaKind::Parity => "Parity",
        }
    }
}

/// One extra memory transaction required by the security metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetaAccess {
    pub addr: u64,
    pub is_write: bool,
    pub kind: MetaKind,
}

/// Figure 3's breakdown of which metadata structures missed on-chip for
/// one data access. Our case lettering (the paper does not spell out its
/// legend): A = everything hit; B = MAC only; C = leaf counter only;
/// D = MAC + leaf; E = leaf + parent; F = MAC + leaf + parent;
/// G = leaf + two-or-more ancestors; H = MAC + leaf + two-or-more.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissCase {
    A,
    B,
    C,
    D,
    E,
    F,
    G,
    H,
}

impl MissCase {
    pub const ALL: [MissCase; 8] = [
        MissCase::A,
        MissCase::B,
        MissCase::C,
        MissCase::D,
        MissCase::E,
        MissCase::F,
        MissCase::G,
        MissCase::H,
    ];

    /// Classify from whether the MAC missed and how many tree levels
    /// were fetched from memory.
    pub fn classify(mac_missed: bool, tree_misses: u32) -> Self {
        match (mac_missed, tree_misses) {
            (false, 0) => MissCase::A,
            (true, 0) => MissCase::B,
            (false, 1) => MissCase::C,
            (true, 1) => MissCase::D,
            (false, 2) => MissCase::E,
            (true, 2) => MissCase::F,
            (false, _) => MissCase::G,
            (true, _) => MissCase::H,
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn label(self) -> &'static str {
        match self {
            MissCase::A => "A:none",
            MissCase::B => "B:mac",
            MissCase::C => "C:leaf",
            MissCase::D => "D:mac+leaf",
            MissCase::E => "E:leaf+par",
            MissCase::F => "F:mac+leaf+par",
            MissCase::G => "G:leaf+2anc",
            MissCase::H => "H:mac+leaf+2anc",
        }
    }
}

/// The result of filtering one data access through the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Extra memory transactions, in issue order.
    pub mem: Vec<MetaAccess>,
    /// CPU stall cycles charged to the issuing core (counter overflow
    /// re-encryption).
    pub stall_cycles: u64,
    /// Figure 3 classification of this access.
    pub case: MissCase,
}

/// Engine configuration, independent of the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    pub scheme: Scheme,
    /// Co-scheduled enclaves (programs).
    pub enclaves: usize,
    /// Physical span the *shared* tree covers, bytes.
    pub data_capacity: u64,
    /// Span each *isolated* tree covers, bytes.
    pub enclave_capacity: u64,
    /// Total on-chip metadata cache budget, bytes (all structures, all
    /// enclaves).
    pub metadata_cache_bytes: usize,
    /// Cache associativity.
    pub cache_ways: usize,
    /// Model local-counter overflow stalls (Figure 11 runs only).
    pub model_overflow: bool,
    /// Consecutive blocks mapped to the same rank before the rank bits
    /// rotate (from the DRAM address-mapping policy; decides which
    /// blocks may share a parity).
    pub rank_stride_blocks: u64,
}

impl EngineConfig {
    /// The paper's 4-core defaults: 64 KB total metadata cache, 32 GB
    /// shared span, 8 GB per enclave.
    pub fn paper_default(scheme: Scheme) -> Self {
        EngineConfig {
            scheme,
            enclaves: 4,
            data_capacity: 32 << 30,
            enclave_capacity: 8 << 30,
            metadata_cache_bytes: 64 << 10,
            cache_ways: 8,
            model_overflow: false,
            rank_stride_blocks: 4,
        }
    }

    /// A per-shard *serving* configuration: one tenant, one core, and a
    /// metadata-cache budget derived from how many structures the
    /// scheme actually caches (8 KB per structure = 8 ways x 16 sets of
    /// 64 B blocks), so every member of [`Scheme::ALL`] validates
    /// without per-scheme tuning. `itesp-serve` instantiates one of
    /// these per shard worker.
    pub fn single_tenant(scheme: Scheme, data_capacity: u64) -> Self {
        let mut cfg = EngineConfig {
            scheme,
            enclaves: 1,
            data_capacity,
            enclave_capacity: data_capacity,
            metadata_cache_bytes: 0,
            cache_ways: 8,
            model_overflow: false,
            rank_stride_blocks: 4,
        };
        cfg.metadata_cache_bytes = cfg.cached_structures().max(1) * (8 << 10);
        cfg
    }

    /// How many cache partitions this configuration needs (one per
    /// enclave under isolation, one shared otherwise).
    fn partitions(&self) -> usize {
        if self.scheme.spec().isolated {
            self.enclaves
        } else {
            1
        }
    }

    /// How many distinct metadata structures the scheme caches on chip.
    fn cached_structures(&self) -> usize {
        let spec = self.scheme.spec();
        usize::from(spec.tree != TreeKind::None)
            + usize::from(spec.tree != TreeKind::None && !spec.mac_inline)
            + usize::from(spec.parity_cached)
    }

    /// Check that the engine can be instantiated: positive enclave and
    /// way counts, block-sized capacities, and a metadata-cache budget
    /// whose per-partition, per-structure slice forms a valid
    /// set-associative cache.
    ///
    /// # Errors
    /// The first violated constraint, with the numbers that violate it.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.enclaves == 0 {
            return Err(EngineConfigError::NoEnclaves);
        }
        if self.cache_ways == 0 {
            return Err(EngineConfigError::NoWays);
        }
        if self.rank_stride_blocks == 0 {
            return Err(EngineConfigError::NoRankStride);
        }
        for (field, bytes) in [
            ("data capacity", self.data_capacity),
            ("enclave capacity", self.enclave_capacity),
        ] {
            if bytes < 64 {
                return Err(EngineConfigError::CapacityTooSmall { field, bytes });
            }
        }
        let structures = self.cached_structures();
        let partitions = self.partitions();
        // Schemes with no cached structures (Unsecure, Synergy) need no
        // slice geometry; checked_div skips them via the zero divisor.
        if let Some(slice) = self
            .metadata_cache_bytes
            .checked_div(partitions * structures)
        {
            let blocks = slice / 64;
            let valid = blocks >= self.cache_ways
                && blocks.is_multiple_of(self.cache_ways)
                && (blocks / self.cache_ways).is_power_of_two();
            if !valid {
                return Err(EngineConfigError::CacheSliceInvalid {
                    budget: self.metadata_cache_bytes,
                    partitions,
                    structures,
                    slice,
                    ways: self.cache_ways,
                });
            }
        }
        Ok(())
    }

    /// A 64-bit digest of every field that decides engine geometry —
    /// the same fields an engine snapshot's config fingerprint compares
    /// before accepting it. Two engines with equal fingerprints can
    /// exchange serialized security state; the migration protocol
    /// checks this before installing an enclave on a destination node.
    pub fn fingerprint(&self) -> u64 {
        let key = crate::mac::MacKey {
            k0: 0x4954_4553_5021_4647, // "ITESP!FG"
            k1: 0x636f_6e66_6967_6670, // "configfp"
        };
        let mut msg = Vec::with_capacity(72);
        msg.extend_from_slice(self.scheme.label().as_bytes());
        for v in [
            self.enclaves as u64,
            self.data_capacity,
            self.enclave_capacity,
            self.metadata_cache_bytes as u64,
            self.cache_ways as u64,
            u64::from(self.model_overflow),
            self.rank_stride_blocks,
        ] {
            msg.extend_from_slice(&v.to_le_bytes());
        }
        crate::mac::siphash24(&key, &msg)
    }
}

/// Traffic and classification statistics for one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize, FromValue, Persist)]
pub struct EngineStats {
    pub data_reads: u64,
    pub data_writes: u64,
    /// Metadata reads by [`MetaKind::index`].
    pub meta_reads: [u64; 3],
    /// Metadata writes by [`MetaKind::index`].
    pub meta_writes: [u64; 3],
    /// Figure 3 case counts by [`MissCase::index`].
    pub case_counts: [u64; 8],
    pub overflows: u64,
    pub overflow_stall_cycles: u64,
}

impl EngineStats {
    /// Total data accesses.
    pub fn data_accesses(&self) -> u64 {
        self.data_reads + self.data_writes
    }

    /// Total metadata transactions.
    pub fn meta_accesses(&self) -> u64 {
        self.meta_reads.iter().sum::<u64>() + self.meta_writes.iter().sum::<u64>()
    }

    /// Figure 9's y-value: extra metadata transactions per data access.
    pub fn meta_per_access(&self) -> f64 {
        self.meta_accesses() as f64 / self.data_accesses().max(1) as f64
    }

    /// Metadata transactions of one kind per data access.
    pub fn kind_per_access(&self, kind: MetaKind) -> f64 {
        let i = kind.index();
        (self.meta_reads[i] + self.meta_writes[i]) as f64 / self.data_accesses().max(1) as f64
    }
}
/// The security metadata engine: configuration, statistics, and the
/// per-scheme [`SchemeModel`] it dispatches through. See module docs
/// and [`crate::model`].
#[derive(Debug)]
pub struct SecurityEngine {
    cfg: EngineConfig,
    spec: SchemeSpec,
    stats: EngineStats,
    /// The scheme family's traffic model (tree-walk, link-level, or
    /// ORAM) — owns the caches, regions, and address math.
    model: Box<dyn SchemeModel>,
}

impl SecurityEngine {
    /// Build the engine.
    ///
    /// # Panics
    /// Panics on an invalid configuration; see [`Self::try_new`] for the
    /// non-panicking variant.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build the engine, rejecting invalid configurations with a typed
    /// error (see [`EngineConfig::validate`]).
    ///
    /// # Errors
    /// [`crate::Error::Engine`] naming the violated constraint.
    pub fn try_new(cfg: EngineConfig) -> Result<Self, crate::Error> {
        cfg.validate().map_err(crate::Error::Engine)?;
        Ok(SecurityEngine {
            cfg,
            spec: cfg.scheme.spec(),
            stats: EngineStats::default(),
            model: crate::model::build_model(cfg),
        })
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    pub fn spec(&self) -> &SchemeSpec {
        &self.spec
    }

    /// Which traffic-model family executes this scheme.
    pub fn family(&self) -> ModelFamily {
        self.model.family()
    }

    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The integrity-tree geometry in use, if the scheme walks a
    /// counter tree (`None` for treeless, link-level, and ORAM
    /// schemes — the ORAM bucket tree is not a counter tree).
    pub fn geometry(&self) -> Option<&TreeGeometry> {
        self.model.geometry()
    }

    /// The geometry partition `part` is actually running: the
    /// lifecycle-installed private tree if one is present (see
    /// [`Self::install_tree`]), else the construction-time geometry.
    pub fn active_geometry(&self, part: usize) -> Option<&TreeGeometry> {
        self.model.active_geometry(part)
    }

    /// Number of metadata partitions (one per enclave when isolated,
    /// otherwise a single shared partition).
    pub fn partitions(&self) -> usize {
        self.model.partitions()
    }

    /// Base physical address of partition `part`'s tree region.
    pub fn tree_base(&self, part: usize) -> u64 {
        self.model.tree_base(part)
    }

    /// Base physical address of partition `part`'s MAC region.
    pub fn mac_base(&self, part: usize) -> u64 {
        self.model.mac_base(part)
    }

    /// Base physical address of partition `part`'s parity region.
    pub fn parity_base(&self, part: usize) -> u64 {
        self.model.parity_base(part)
    }

    /// Size in bytes of one partition's metadata region for `kind`
    /// (the bound the differential oracle checks containment against).
    pub fn region_span(&self, kind: MetaKind) -> u64 {
        self.model.region_span(kind)
    }

    /// Whether the scheme can detect corrupted data (tree MAC, link
    /// MAC, or bucket MAC). Detection without parity makes a chip
    /// fault a DUE; no detection makes it silent corruption.
    pub fn detects_errors(&self) -> bool {
        self.model.detects_errors()
    }

    /// Tree/counter metadata-cache statistics (merged across partitions).
    pub fn tree_cache_stats(&self) -> CacheStats {
        self.model.tree_cache_stats()
    }

    /// MAC cache statistics (VAULT-style schemes only).
    pub fn mac_cache_stats(&self) -> CacheStats {
        self.model.mac_cache_stats()
    }

    /// Parity cache statistics (parity-cached schemes only).
    pub fn parity_cache_stats(&self) -> CacheStats {
        self.model.parity_cache_stats()
    }

    /// Combined metadata-cache statistics (tree + MAC), the quantity
    /// Figure 2 plots.
    pub fn metadata_cache_stats(&self) -> CacheStats {
        let mut s = self.tree_cache_stats();
        s.merge(&self.mac_cache_stats());
        s
    }

    /// The configuration fields an engine snapshot records, so it
    /// cannot be restored into an engine built for a different scheme
    /// or capacity.
    fn config_fingerprint(&self) -> ConfigFingerprint {
        let c = &self.cfg;
        (
            c.scheme.label().to_owned(),
            c.enclaves,
            c.data_capacity,
            c.enclave_capacity,
            c.metadata_cache_bytes,
            c.cache_ways,
            c.model_overflow,
            c.rank_stride_blocks,
        )
    }

    /// Which cache partition and block index a data access uses:
    /// isolated trees index each enclave's partition by its dense
    /// per-enclave block, shared trees have one partition indexed by
    /// `paddr`.
    pub fn locate(&self, enclave: usize, paddr: u64, enclave_block: u64) -> (usize, u64) {
        if self.spec.isolated {
            (enclave, enclave_block)
        } else {
            (0, paddr / 64)
        }
    }

    /// Filter one LLC-filtered data access. `enclave_block` is the dense
    /// per-enclave block index (leaf-id page * 64 + block offset) used by
    /// isolated trees; shared trees index by `paddr` instead.
    pub fn on_access(
        &mut self,
        enclave: usize,
        paddr: u64,
        enclave_block: u64,
        is_write: bool,
    ) -> AccessOutcome {
        if is_write {
            self.stats.data_writes += 1;
        } else {
            self.stats.data_reads += 1;
        }

        let mut mem = Vec::new();
        let (part, block) = self.locate(enclave, paddr, enclave_block);
        let (stall, case) = self.model.access(part, block, is_write, &mut mem);

        if stall > 0 {
            self.stats.overflows += 1;
            self.stats.overflow_stall_cycles += stall;
        }
        self.stats.case_counts[case.index()] += 1;

        for m in &mem {
            if m.is_write {
                self.stats.meta_writes[m.kind.index()] += 1;
            } else {
                self.stats.meta_reads[m.kind.index()] += 1;
            }
        }

        AccessOutcome {
            mem,
            stall_cycles: stall,
            case,
        }
    }

    /// Can the embedded-parity design actually embed under the current
    /// address mapping? See `TreeWalkModel::embedding_viable`
    /// (Section III-E); always false for non-tree families.
    ///
    /// # Panics
    /// For tree-walk schemes without a tree (embedded parity implies a
    /// tree).
    pub fn embedding_viable(&self) -> bool {
        self.model.embedding_viable()
    }

    /// How many blocks share one correction parity under this scheme:
    /// 1 for per-block parity (Synergy), the cross-rank group size for
    /// shared and embedded parity, 8 for ORAM bucket parity, 0 when
    /// the scheme cannot reconstruct at all (detection-only designs).
    pub fn parity_group_share(&self) -> u64 {
        self.model.parity_group_share()
    }

    /// The memory line a recovery of `block` must fetch its correction
    /// parity from: the per-block/shared parity line, the tree leaf for
    /// viable embedded parity, the external fallback line, or the
    /// bucket-parity line (ORAM). `None` when the scheme has no parity
    /// (detection-only — the RAS layer reports an uncorrectable error
    /// instead of reconstructing).
    pub fn recovery_parity_addr(&self, part: usize, block: u64) -> Option<u64> {
        self.model.recovery_parity_addr(part, block)
    }

    /// Fold a batch of lifecycle-generated transactions into the
    /// engine's traffic statistics (the same accounting `on_access`
    /// applies to its own transaction list).
    fn account(&mut self, mem: &[MetaAccess]) {
        for m in mem {
            if m.is_write {
                self.stats.meta_writes[m.kind.index()] += 1;
            } else {
                self.stats.meta_reads[m.kind.index()] += 1;
            }
        }
    }

    // ------------------------------------------------------------------
    // Enclave lifecycle (ISSUE 5): private trees are no longer sized
    // once at construction. An enclave manager installs a
    // footprint-sized tree at create, re-roots it when first-touch
    // allocation outgrows it, resets recycled leaves, and zeroizes the
    // whole partition at destroy. Every operation returns the metadata
    // transactions it costs, in issue order, already folded into
    // `stats` — the simulator turns them into real DRAM traffic.
    // Dispatches through the scheme model; families without private
    // trees (link-level, ORAM, shared tree-walk) are no-ops.
    // ------------------------------------------------------------------

    /// Install a private tree for partition `part`, sized to cover
    /// `data_blocks` of enclave data (clamped to the partition's
    /// reserved span). Returns the tree-node initialization writes —
    /// secure creation materializes every counter node with fresh
    /// (zero) counters and root-chained MACs, so there is one write
    /// per stored node. MAC lines are *not* pre-written: like data,
    /// they are produced lazily on first write (first-touch).
    ///
    /// No-op for non-isolated schemes (their shared tree covers all of
    /// memory and is never resized) and for schemes without a tree.
    pub fn install_tree(&mut self, part: usize, data_blocks: u64) -> Vec<MetaAccess> {
        let mut mem = Vec::new();
        self.model.install_tree(part, data_blocks, &mut mem);
        self.account(&mem);
        mem
    }

    /// Grow partition `part`'s installed tree to cover at least
    /// `data_blocks`, re-rooting into a larger geometry. Cached dirty
    /// nodes are written back first (the old tree's state must be
    /// persistent before relayout), every old node is read back
    /// (migration: its counters are re-hashed into the new layout),
    /// and every node of the new layout is written — level offsets
    /// shift, so even surviving counters land at new addresses.
    /// Returns the combined traffic (empty when the installed tree
    /// already covers `data_blocks`) and how many of its leading writes
    /// are that cache flush. The flush depends on what the partition
    /// happened to cache; the rest depends only on the two geometries.
    ///
    /// Installs the tree outright if none is present yet.
    pub fn grow_tree(&mut self, part: usize, data_blocks: u64) -> (Vec<MetaAccess>, usize) {
        let mut mem = Vec::new();
        let flushed = self.model.grow_tree(part, data_blocks, &mut mem);
        self.account(&mem);
        (mem, flushed)
    }

    /// Secure teardown of partition `part`: zeroize every stored node
    /// of the installed tree and, when the scheme keeps a separate MAC
    /// structure, the MAC lines covering its span. Cached lines are
    /// discarded *without* writeback — their contents are dead; the
    /// zeroize writes are the only traffic. Uninstalls the private
    /// geometry. Returns empty if no tree was installed (nothing to
    /// tear down) or the scheme is not isolated.
    pub fn reset_partition(&mut self, part: usize) -> Vec<MetaAccess> {
        let mut mem = Vec::new();
        self.model.reset_partition(part, &mut mem);
        self.account(&mem);
        mem
    }

    /// Counter-reset traffic for returning the blocks
    /// `[first_block, first_block + count)` (partition-domain indices:
    /// enclave blocks under isolation, `paddr / 64` otherwise) to a
    /// free list. The covering tree leaves are rewritten with fresh
    /// counters — so a recycled leaf-id can never replay the dead
    /// owner's state — and their cached copies are dropped
    /// (superseded, not written back). When `rebuild_parity` is set,
    /// correction-parity groups that outlive the page pay their
    /// rebuild: per-block parity lines are rewritten, shared groups
    /// pay a read-modify-write each; clearing it models
    /// break-the-group instead (no traffic; the RAS layer would mark
    /// the group degraded). Embedded parity rides in the leaf rewrite
    /// for free, exactly as in the write path.
    pub fn reset_leaves(
        &mut self,
        part: usize,
        first_block: u64,
        count: u64,
        rebuild_parity: bool,
    ) -> Vec<MetaAccess> {
        let mut mem = Vec::new();
        self.model
            .reset_leaves(part, first_block, count, rebuild_parity, &mut mem);
        self.account(&mem);
        mem
    }

    /// Deterministically repartition every metadata cache across the
    /// live partitions: each live partition's slice becomes the
    /// largest valid capacity not exceeding an equal share of the
    /// structure's total budget (dead partitions idle at the one-set
    /// minimum, which is re-absorbed on their next create). Growth
    /// only re-homes resident lines — it can never evict another
    /// partition's state — while shrinking a live partition (a new
    /// tenant carving its share out of incumbents) spills its LRU
    /// tail, returned here as writeback traffic. No-op for
    /// non-isolated schemes (a single shared partition).
    pub fn repartition_caches(&mut self, live: &[bool]) -> Vec<MetaAccess> {
        let mut mem = Vec::new();
        self.model.repartition_caches(live, &mut mem);
        self.account(&mem);
        mem
    }

    /// Flush every cache, emitting the writeback traffic (end-of-run
    /// bookkeeping so dirty metadata is not silently dropped).
    pub fn drain(&mut self) -> Vec<MetaAccess> {
        let mut mem = Vec::new();
        self.model.drain(&mut mem);
        self.account(&mem);
        mem
    }
}

/// See [`SecurityEngine::config_fingerprint`].
type ConfigFingerprint = (String, usize, u64, u64, usize, usize, bool, u64);

/// Hand-written: the snapshot starts with the engine's config
/// fingerprint, which `load` checks against this engine's own before
/// decoding any state.
impl Persist for SecurityEngine {
    fn save(&self, w: &mut SnapWriter) {
        w.section("ENGN", 1);
        w.put(&self.config_fingerprint());
        w.put(&self.stats);
        w.put(&*self.model);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("ENGN", 1)?;
        let at = r.pos();
        let fingerprint: ConfigFingerprint = r.get("engine config fingerprint")?;
        if fingerprint != self.config_fingerprint() {
            return Err(SnapError::Corrupt {
                what: "engine config fingerprint (snapshot from a different configuration)",
                at,
            });
        }
        self.stats.load(r, "engine stats")?;
        self.model.load(r, "scheme model")
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn engine(scheme: Scheme) -> SecurityEngine {
        SecurityEngine::new(EngineConfig::paper_default(scheme))
    }

    #[test]
    fn fingerprint_separates_configurations() {
        let base = EngineConfig::paper_default(Scheme::Itesp);
        assert_eq!(base.fingerprint(), base.fingerprint());
        let mut other = base;
        other.enclave_capacity *= 2;
        assert_ne!(base.fingerprint(), other.fingerprint());
        assert_ne!(
            base.fingerprint(),
            EngineConfig::paper_default(Scheme::ItVault).fingerprint()
        );
    }

    #[test]
    fn single_tenant_validates_for_every_scheme() {
        for scheme in Scheme::ALL {
            let cfg = EngineConfig::single_tenant(scheme, 32 << 30);
            cfg.validate().unwrap_or_else(|e| panic!("{scheme:?}: {e}"));
            assert_eq!(cfg.enclaves, 1);
            // The budget scales with the structures the scheme caches;
            // a scheme that caches nothing still gets one valid slice.
            assert_eq!(
                cfg.metadata_cache_bytes,
                cfg.cached_structures().max(1) * (8 << 10)
            );
        }
    }

    #[test]
    fn unsecure_generates_no_metadata() {
        let mut e = engine(Scheme::Unsecure);
        let out = e.on_access(0, 0x1000, 0x40, false);
        assert!(out.mem.is_empty());
        let out = e.on_access(0, 0x1000, 0x40, true);
        assert!(out.mem.is_empty());
        assert_eq!(e.stats().meta_per_access(), 0.0);
    }

    #[test]
    fn vault_cold_read_fetches_mac_and_tree_path() {
        let mut e = engine(Scheme::Vault);
        let out = e.on_access(0, 0, 0, false);
        let macs = out.mem.iter().filter(|m| m.kind == MetaKind::Mac).count();
        let trees = out.mem.iter().filter(|m| m.kind == MetaKind::Tree).count();
        assert_eq!(macs, 1, "cold MAC fetch");
        // Cold walk misses every stored level.
        assert!(trees >= 3, "cold tree walk fetched {trees} levels");
        assert_eq!(out.case, MissCase::H);
    }

    #[test]
    fn vault_warm_read_hits_everything() {
        let mut e = engine(Scheme::Vault);
        e.on_access(0, 0, 0, false);
        let out = e.on_access(0, 0, 0, false);
        assert!(out.mem.is_empty());
        assert_eq!(out.case, MissCase::A);
    }

    #[test]
    fn spatial_locality_shares_mac_and_leaf_lines() {
        let mut e = engine(Scheme::Vault);
        e.on_access(0, 0, 0, false);
        // Next block: same MAC line (8 blocks/line) and same leaf (64).
        let out = e.on_access(0, 64, 1, false);
        assert!(out.mem.is_empty(), "expected full spatial reuse: {out:?}");
    }

    #[test]
    fn synergy_read_skips_mac_structure() {
        let mut e = engine(Scheme::Synergy);
        let out = e.on_access(0, 0, 0, false);
        assert!(out.mem.iter().all(|m| m.kind != MetaKind::Mac));
        assert!(out.mem.iter().any(|m| m.kind == MetaKind::Tree));
    }

    #[test]
    fn synergy_write_pays_one_parity_write() {
        let mut e = engine(Scheme::Synergy);
        e.on_access(0, 0, 0, false); // warm the tree
        let out = e.on_access(0, 0, 0, true);
        let parity: Vec<_> = out
            .mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity)
            .collect();
        assert_eq!(parity.len(), 1);
        assert!(parity[0].is_write);
    }

    #[test]
    fn shared_parity_uncached_pays_rmw() {
        let mut e = engine(Scheme::ItSynergySharedParity);
        e.on_access(0, 0, 0, false);
        let out = e.on_access(0, 0, 0, true);
        let reads = out
            .mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity && !m.is_write)
            .count();
        let writes = out
            .mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity && m.is_write)
            .count();
        assert_eq!((reads, writes), (1, 1), "shared parity is a RMW");
    }

    #[test]
    fn parity_cache_coalesces_writes() {
        let mut e = engine(Scheme::ItSynergyParityCache);
        e.on_access(0, 0, 0, false);
        // 8 writes to consecutive blocks share one parity line: only
        // evictions produce traffic.
        let mut parity_traffic = 0;
        for b in 0..8u64 {
            let out = e.on_access(0, b * 64, b, true);
            parity_traffic += out
                .mem
                .iter()
                .filter(|m| m.kind == MetaKind::Parity)
                .count();
        }
        assert_eq!(parity_traffic, 0, "all parity writes coalesced on-chip");
    }

    #[test]
    fn itesp_read_and_write_touch_only_the_tree() {
        let mut e = engine(Scheme::Itesp);
        let r = e.on_access(0, 0, 0, false);
        assert!(r.mem.iter().all(|m| m.kind == MetaKind::Tree));
        let w = e.on_access(0, 64, 1, true);
        assert!(
            w.mem.iter().all(|m| m.kind == MetaKind::Tree),
            "ITESP write produced non-tree traffic: {w:?}"
        );
    }

    #[test]
    fn itesp_warm_write_is_free() {
        let mut e = engine(Scheme::Itesp);
        e.on_access(0, 0, 0, true);
        let out = e.on_access(0, 64, 1, true);
        assert!(
            out.mem.is_empty(),
            "counter+parity both live in the hot leaf"
        );
    }

    #[test]
    fn itesp_column_mapping_defeats_embedding() {
        // Under Column (rank stride 1024), a parity group of 8 blocks
        // spans 8 K consecutive blocks — far more than a leaf covers —
        // so writes must fall back to external shared parity and pay
        // its traffic (Figure 15's metadata penalty).
        let parity_traffic = |stride: u64| {
            let mut cfg = EngineConfig::paper_default(Scheme::Itesp);
            cfg.rank_stride_blocks = stride;
            let mut e = SecurityEngine::new(cfg);
            let mut parity = 0;
            for b in 0..512u64 {
                let out = e.on_access(0, b * 4096, b * 64, true);
                parity += out
                    .mem
                    .iter()
                    .filter(|m| m.kind == MetaKind::Parity)
                    .count();
            }
            parity
        };
        assert_eq!(parity_traffic(4), 0, "4-RBH embeds: no parity traffic");
        assert!(
            parity_traffic(1024) > 100,
            "Column must pay external parity traffic"
        );
    }

    #[test]
    fn embedding_viability_follows_rank_stride() {
        for (stride, viable) in [(1u64, true), (2, true), (4, true), (1024, false)] {
            let mut cfg = EngineConfig::paper_default(Scheme::Itesp);
            cfg.rank_stride_blocks = stride;
            let e = SecurityEngine::new(cfg);
            assert_eq!(e.embedding_viable(), viable, "stride {stride}");
        }
    }

    #[test]
    fn isolation_partitions_do_not_interfere() {
        let mut shared = engine(Scheme::Synergy);
        let mut isolated = engine(Scheme::ItSynergy);
        // Enclave 0 warms its path; enclave 1's identical enclave-block
        // address in the isolated design misses in its own partition.
        shared.on_access(0, 0, 0, false);
        isolated.on_access(0, 0, 0, false);
        let s1 = isolated.on_access(1, 1 << 20, 0, false);
        assert!(
            !s1.mem.is_empty(),
            "different enclave must miss its own tree"
        );
        // But warms for the next access.
        let s2 = isolated.on_access(1, 1 << 20, 0, false);
        assert!(s2.mem.is_empty());
    }

    #[test]
    fn dirty_leaf_eviction_emits_writeback_and_dirties_parent() {
        // Tiny cache so evictions happen quickly.
        let mut cfg = EngineConfig::paper_default(Scheme::Synergy);
        cfg.metadata_cache_bytes = 1024; // 16 lines
        let mut e = SecurityEngine::new(cfg);
        // Write to many distinct leaves to force dirty evictions.
        let mut wb = 0;
        for i in 0..200u64 {
            let out = e.on_access(0, i * 64 * 64, i * 64, true);
            wb += out
                .mem
                .iter()
                .filter(|m| m.kind == MetaKind::Tree && m.is_write)
                .count();
        }
        assert!(wb > 0, "dirty leaves must be written back");
    }

    #[test]
    fn overflow_stall_reported_when_modeled() {
        let mut cfg = EngineConfig::paper_default(Scheme::Itesp128);
        cfg.model_overflow = true;
        let mut e = SecurityEngine::new(cfg);
        let mut stalled = 0u64;
        for _ in 0..8 {
            stalled += e.on_access(0, 0, 0, true).stall_cycles;
        }
        // 2-bit locals overflow every 4 writes: 8 writes = 2 overflows.
        assert_eq!(e.stats().overflows, 2);
        assert!(stalled > 0);
    }

    #[test]
    fn case_classification_table() {
        assert_eq!(MissCase::classify(false, 0), MissCase::A);
        assert_eq!(MissCase::classify(true, 0), MissCase::B);
        assert_eq!(MissCase::classify(false, 1), MissCase::C);
        assert_eq!(MissCase::classify(true, 1), MissCase::D);
        assert_eq!(MissCase::classify(false, 2), MissCase::E);
        assert_eq!(MissCase::classify(true, 2), MissCase::F);
        assert_eq!(MissCase::classify(false, 5), MissCase::G);
        assert_eq!(MissCase::classify(true, 3), MissCase::H);
    }

    #[test]
    fn recovery_parity_addr_follows_the_scheme() {
        // Detection-only scheme: no parity to fetch.
        assert_eq!(engine(Scheme::Vault).recovery_parity_addr(0, 5), None);
        assert_eq!(engine(Scheme::Vault).parity_group_share(), 0);

        // Per-block parity: 8 parity words per line.
        let syn = engine(Scheme::Synergy);
        assert_eq!(syn.parity_group_share(), 1);
        assert_eq!(
            syn.recovery_parity_addr(0, 17),
            Some(syn.parity_base(0) + 2 * 64)
        );

        // Shared parity: the group's line, matching the write path.
        let shared = engine(Scheme::ItSynergySharedParity);
        assert_eq!(shared.parity_group_share(), 8);
        let group = crate::model::parity_group(9, 8, shared.config().rank_stride_blocks);
        assert_eq!(
            shared.recovery_parity_addr(0, 9),
            Some(shared.parity_base(0) + (group / 8) * 64)
        );

        // Viable embedded parity: the covering tree leaf itself.
        let itesp = engine(Scheme::Itesp);
        assert!(itesp.embedding_viable());
        let geo = itesp.geometry().unwrap();
        let leaf = geo.node_addr(itesp.tree_base(0), geo.leaf_of(100));
        assert_eq!(itesp.recovery_parity_addr(0, 100), Some(leaf));
    }

    #[test]
    fn recovery_parity_addr_fallback_when_embedding_fails() {
        let mut cfg = EngineConfig::paper_default(Scheme::Itesp);
        cfg.rank_stride_blocks = 1024; // Column mapping: not viable
        let e = SecurityEngine::new(cfg);
        assert!(!e.embedding_viable());
        let addr = e.recovery_parity_addr(0, 100).unwrap();
        assert!(
            addr >= e.parity_base(0),
            "fallback parity must live in the external parity region"
        );
    }

    #[test]
    fn drain_writes_back_dirty_state() {
        let mut e = engine(Scheme::Synergy);
        e.on_access(0, 0, 0, true);
        let mem = e.drain();
        assert!(mem.iter().any(|m| m.kind == MetaKind::Tree && m.is_write));
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut e = engine(Scheme::Vault);
        e.on_access(0, 0, 0, false);
        e.on_access(0, 1 << 24, 100, true);
        let s = e.stats();
        assert_eq!(s.data_reads, 1);
        assert_eq!(s.data_writes, 1);
        assert!(s.meta_per_access() > 0.0);
    }

    // ---------------- enclave lifecycle entry points ----------------

    #[test]
    fn install_tree_writes_every_node_of_a_footprint_sized_tree() {
        let mut e = engine(Scheme::Itesp);
        // 16 pages = 1024 blocks; ITESP64 leaves cover 64 blocks.
        let mem = e.install_tree(1, 1024);
        let geo = e.active_geometry(1).unwrap().clone();
        assert_eq!(geo.data_blocks(), 1024);
        assert_eq!(mem.len() as u64, geo.total_nodes());
        assert!(mem.iter().all(|m| m.is_write && m.kind == MetaKind::Tree));
        // All init writes land inside this partition's tree region.
        assert!(mem
            .iter()
            .all(|m| m.addr >= e.tree_base(1) && m.addr < e.tree_base(1) + geo.storage_bytes()));
        // Other partitions keep the construction-time geometry.
        assert_eq!(
            e.active_geometry(0).unwrap().data_blocks(),
            e.geometry().unwrap().data_blocks()
        );
        // The installed tree serves accesses: a walk stays in bounds
        // and the warm path is free.
        assert!(!e.on_access(1, 0, 0, false).mem.is_empty());
        assert!(e.on_access(1, 0, 0, false).mem.is_empty());
    }

    #[test]
    fn install_tree_is_a_no_op_for_shared_and_treeless_schemes() {
        let mut shared = engine(Scheme::Vault);
        assert!(shared.install_tree(0, 1024).is_empty());
        let mut unsecure = engine(Scheme::Unsecure);
        assert!(unsecure.install_tree(0, 1024).is_empty());
    }

    #[test]
    fn grow_tree_pays_migration_reads_and_relayout_writes() {
        let mut e = engine(Scheme::Itesp);
        e.install_tree(0, 1024);
        let old_nodes = e.active_geometry(0).unwrap().total_nodes();
        // Dirty the installed tree so growth must persist state first.
        e.on_access(0, 0, 0, true);
        let (mem, flushed) = e.grow_tree(0, 4096);
        let new_nodes = e.active_geometry(0).unwrap().total_nodes();
        assert!(new_nodes > old_nodes);
        let reads = mem.iter().filter(|m| !m.is_write).count() as u64;
        let writes = mem.iter().filter(|m| m.is_write).count() as u64;
        assert_eq!(reads, old_nodes, "every old node is migrated");
        assert_eq!(writes, flushed as u64 + new_nodes, "flush, then layout");
        assert!(flushed > 0, "the dirty line is flushed first");
        assert!(mem[..flushed].iter().all(|m| m.is_write));
        assert!(!mem[flushed].is_write, "migration reads follow the flush");
        // Growing to a covered span is free; shrinking never happens.
        assert_eq!(e.grow_tree(0, 4096), (vec![], 0));
        assert_eq!(e.grow_tree(0, 64), (vec![], 0));
    }

    #[test]
    fn grow_tree_without_install_installs() {
        let mut e = engine(Scheme::ItSynergy);
        let (mem, flushed) = e.grow_tree(2, 512);
        assert!(!mem.is_empty());
        assert_eq!(flushed, 0);
        assert_eq!(e.active_geometry(2).unwrap().data_blocks(), 512);
    }

    #[test]
    fn reset_partition_zeroizes_and_uninstalls() {
        let mut e = engine(Scheme::ItVault); // separate MAC structure
        e.install_tree(1, 1024);
        let nodes = e.active_geometry(1).unwrap().total_nodes();
        e.on_access(1, 0, 0, true); // dirty some cached state
        let wb_before = e.tree_cache_stats().writebacks;
        let mem = e.reset_partition(1);
        assert!(mem.iter().all(|m| m.is_write), "teardown only writes");
        let trees = mem.iter().filter(|m| m.kind == MetaKind::Tree).count() as u64;
        let macs = mem.iter().filter(|m| m.kind == MetaKind::Mac).count() as u64;
        assert_eq!(trees, nodes, "every stored node is zeroized");
        assert_eq!(macs, 1024_u64.div_ceil(8), "MAC span is zeroized");
        assert_eq!(
            e.tree_cache_stats().writebacks,
            wb_before,
            "dead cached state is discarded, never written back"
        );
        // Geometry falls back to the construction-time tree.
        assert_eq!(
            e.active_geometry(1).unwrap().data_blocks(),
            e.geometry().unwrap().data_blocks()
        );
        // Double-destroy is a no-op.
        assert!(e.reset_partition(1).is_empty());
    }

    #[test]
    fn reset_leaves_rewrites_covering_leaves_and_drops_cached_copies() {
        let mut e = engine(Scheme::Itesp);
        e.install_tree(0, 1024);
        e.on_access(0, 0, 0, true); // leaf 0 cached dirty
        let mem = e.reset_leaves(0, 0, 64, true);
        // VaultItesp leaves cover 32 blocks: a 64-block page spans two
        // leaves; embedded parity rides in the leaf rewrites.
        assert_eq!(mem.len(), 2);
        assert!(mem.iter().all(|m| m.is_write && m.kind == MetaKind::Tree));
        // The stale cached leaf was superseded: the next access must
        // re-fetch it from memory, not hit dead on-chip state.
        let out = e.on_access(0, 0, 0, false);
        assert!(
            out.mem
                .iter()
                .any(|m| m.kind == MetaKind::Tree && !m.is_write),
            "stale leaf line must not survive a reset: {out:?}"
        );
    }

    #[test]
    fn reset_leaves_parity_rebuild_follows_the_scheme() {
        // Per-block parity: one parity line per 8 blocks, plain writes.
        let mut syn = engine(Scheme::Synergy);
        let mem = syn.reset_leaves(0, 0, 64, true);
        let parity_writes = mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity && m.is_write)
            .count();
        assert_eq!(parity_writes, 8);
        assert!(
            mem.iter()
                .filter(|m| m.kind == MetaKind::Parity)
                .all(|m| m.is_write),
            "per-block parity rebuild has no RMW reads"
        );

        // Shared parity: each surviving group pays a read-modify-write.
        let mut shared = engine(Scheme::ItSynergySharedParity);
        shared.install_tree(0, 1024);
        let mem = shared.reset_leaves(0, 0, 64, true);
        let reads = mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity && !m.is_write)
            .count();
        let writes = mem
            .iter()
            .filter(|m| m.kind == MetaKind::Parity && m.is_write)
            .count();
        assert!(reads > 0, "shared-parity rebuild is a RMW");
        assert_eq!(reads, writes);

        // Break-the-group instead: no parity traffic at all.
        let mem = shared.reset_leaves(0, 64, 64, false);
        assert!(mem.iter().all(|m| m.kind != MetaKind::Parity));
    }

    #[test]
    fn repartition_is_deterministic_and_leaves_survivors_alone() {
        let run = || {
            let mut e = engine(Scheme::Itesp);
            for part in 0..4 {
                e.install_tree(part, 1024);
                for b in 0..32u64 {
                    e.on_access(part, b * 64, b, true);
                }
            }
            // Enclave 3 dies.
            let zero = e.reset_partition(3);
            let repart = e.repartition_caches(&[true, true, true, false]);
            (zero.len(), repart.len())
        };
        assert_eq!(run(), run(), "teardown must be a pure function of history");

        let mut e = engine(Scheme::Itesp);
        for part in 0..4 {
            e.install_tree(part, 1024);
            for b in 0..32u64 {
                e.on_access(part, b * 64, b, true);
            }
        }
        e.reset_partition(3);
        e.repartition_caches(&[true, true, true, false]);
        // Survivors' warm paths still hit: repartition growth never
        // evicted their lines.
        for part in 0..3 {
            let out = e.on_access(part, 0, 0, false);
            assert!(
                out.mem.is_empty(),
                "partition {part} lost warm state across repartition: {out:?}"
            );
        }
    }

    #[test]
    fn repartition_no_ops_for_shared_schemes() {
        let mut e = engine(Scheme::Vault);
        assert!(e.repartition_caches(&[true]).is_empty());
    }

    #[test]
    fn lifecycle_traffic_lands_in_engine_stats() {
        let mut e = engine(Scheme::Itesp);
        let installed = e.install_tree(0, 1024).len() as u64;
        assert_eq!(e.stats().meta_writes[MetaKind::Tree.index()], installed);
        e.grow_tree(0, 2048);
        assert!(e.stats().meta_reads[MetaKind::Tree.index()] > 0);
    }
}
