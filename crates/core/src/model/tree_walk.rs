//! The counter-tree traffic model: every scheme of the paper's own
//! lineage (VAULT, Synergy, the It* isolation points, ITESP, and the
//! Morphable-counter family), plus the treeless `Unsecure` baseline as
//! the degenerate no-tree case.
//!
//! This is the original [`crate::SecurityEngine`] access path moved
//! behind [`SchemeModel`] verbatim. Per-access output pins in
//! `crates/oracle/tests/engine_pins.rs`, the snapshot and whole-run
//! pins and the committed figure JSON hold its behaviour fixed.

use std::collections::BTreeSet;

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

use crate::cache::{largest_valid_capacity, CacheStats, PartitionedCache};
use crate::counters::OverflowTracker;
use crate::engine::{EngineConfig, MetaAccess, MetaKind, MissCase};
use crate::scheme::{ModelFamily, ParityMode, SchemeSpec, TreeKind};
use crate::tree::{NodeId, TreeGeometry};

use super::SchemeModel;

/// Per-enclave region bases for metadata placement in physical memory.
#[derive(Debug, Clone)]
struct Regions {
    tree_bases: Vec<u64>,
    mac_bases: Vec<u64>,
    parity_bases: Vec<u64>,
}

/// Cap on dirty-writeback cascade processing per access (the lazy
/// hash-propagation chain is almost always 1-2 deep; the cap guards the
/// pathological case).
const MAX_WRITEBACK_CHAIN: usize = 32;

/// Parity-group id for `block` when one parity covers `share` blocks in
/// different ranks: with rank stride S, a group is the blocks
/// `{w + j + k*S | k in 0..share}` within each window `w` of
/// `S * share` blocks.
pub fn parity_group(block: u64, share: u64, rank_stride_blocks: u64) -> u64 {
    let s = rank_stride_blocks.max(1);
    let window = s.saturating_mul(share);
    (block / window) * s + (block % s)
}

/// The tree-walk [`SchemeModel`]. See module docs.
#[derive(Debug)]
pub struct TreeWalkModel {
    cfg: EngineConfig,
    spec: SchemeSpec,
    geo: Option<TreeGeometry>,
    /// Lifecycle override of `geo` per partition: a footprint-sized
    /// private tree installed by an enclave manager (`None` = the
    /// static construction-time tree). Only ever `Some` for isolated
    /// schemes.
    part_geos: Vec<Option<TreeGeometry>>,
    /// Construction-time per-partition, per-structure cache slice,
    /// bytes — the budget unit `repartition_caches` redistributes.
    slice_bytes: usize,
    tree_cache: Option<PartitionedCache>,
    mac_cache: Option<PartitionedCache>,
    parity_cache: Option<PartitionedCache>,
    overflow: Option<OverflowTracker>,
    regions: Regions,
}

impl TreeWalkModel {
    /// Build the model (the caller validated `cfg`).
    pub fn new(cfg: EngineConfig) -> Self {
        let spec = cfg.scheme.spec();
        let span = if spec.isolated {
            cfg.enclave_capacity
        } else {
            cfg.data_capacity
        };
        let geo = spec.tree.geometry(span / 64);

        let parts = if spec.isolated { cfg.enclaves } else { 1 };
        let per_part_budget = cfg.metadata_cache_bytes / parts;

        // Split the budget across the structures the scheme caches.
        let needs_mac_cache = spec.tree != TreeKind::None && !spec.mac_inline;
        let needs_parity_cache = spec.parity_cached;
        let split = 1 + usize::from(needs_mac_cache) + usize::from(needs_parity_cache);
        let slice = per_part_budget / split;

        let mk = |bytes: usize| PartitionedCache::new(parts, bytes, cfg.cache_ways);
        let tree_cache = (spec.tree != TreeKind::None).then(|| mk(slice));
        let mac_cache = needs_mac_cache.then(|| mk(slice));
        let parity_cache = needs_parity_cache.then(|| mk(slice));

        let overflow = (cfg.model_overflow && geo.is_some()).then(|| {
            let g = geo.as_ref().expect("checked");
            OverflowTracker::new(g.local_counter_bits(), g.leaf_arity())
        });

        // Metadata regions live above the data span; each enclave (or
        // the single shared instance) gets its own stripe.
        let tree_bytes = geo.as_ref().map_or(0, TreeGeometry::storage_bytes);
        let mac_bytes = span / 8;
        let parity_bytes = span / 8;
        let stripe = tree_bytes + mac_bytes + parity_bytes;
        let mut tree_bases = Vec::with_capacity(parts);
        let mut mac_bases = Vec::with_capacity(parts);
        let mut parity_bases = Vec::with_capacity(parts);
        for p in 0..parts as u64 {
            let base = cfg.data_capacity + p * stripe;
            tree_bases.push(base);
            mac_bases.push(base + tree_bytes);
            parity_bases.push(base + tree_bytes + mac_bytes);
        }

        TreeWalkModel {
            cfg,
            spec,
            geo,
            part_geos: (0..parts).map(|_| None).collect(),
            slice_bytes: slice,
            tree_cache,
            mac_cache,
            parity_cache,
            overflow,
            regions: Regions {
                tree_bases,
                mac_bases,
                parity_bases,
            },
        }
    }

    /// Walk leaf-to-top until an on-chip hit; returns levels fetched
    /// from memory. Dirty evictions propagate hashes lazily: the victim
    /// is written back and its parent is dirtied.
    fn walk_tree(
        &mut self,
        part: usize,
        block: u64,
        dirty_leaf: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> u32 {
        let geo = self.part_geos[part]
            .as_ref()
            .or(self.geo.as_ref())
            .expect("walk_tree requires a tree");
        let cache = self.tree_cache.as_mut().expect("tree implies tree cache");
        let base = self.regions.tree_bases[part];

        let mut misses = 0;
        let mut pending = Vec::new();
        for node in geo.walk(block) {
            let addr = geo.node_addr(base, node);
            let out = cache.access(part, addr, dirty_leaf && node.level == 0);
            if let Some(victim) = out.writeback {
                pending.push(victim);
            }
            if out.hit {
                break;
            }
            mem.push(MetaAccess {
                addr,
                is_write: false,
                kind: MetaKind::Tree,
            });
            misses += 1;
        }

        // Lazy hash propagation for evicted dirty nodes (and plain
        // writes for evicted fallback-parity lines).
        self.process_writebacks(part, pending, mem);
        misses
    }

    /// Handle one unified-cache eviction (and any cascade): tree nodes
    /// are written back and dirty their parent; fallback-parity lines
    /// (addresses in the parity region) are simply written back — the
    /// write half of their read-modify-write.
    fn unified_writeback(&mut self, part: usize, victim: u64, mem: &mut Vec<MetaAccess>) {
        self.process_writebacks(part, vec![victim], mem);
    }

    fn process_writebacks(
        &mut self,
        part: usize,
        mut pending: Vec<u64>,
        mem: &mut Vec<MetaAccess>,
    ) {
        let geo = self.part_geos[part]
            .as_ref()
            .or(self.geo.as_ref())
            .expect("writebacks imply a tree");
        let cache = self.tree_cache.as_mut().expect("tree cache");
        let tree_base = self.regions.tree_bases[part];
        let parity_base = self.regions.parity_bases[part];
        let mut processed = 0;
        while let Some(victim) = pending.pop() {
            if victim >= parity_base {
                // Fallback shared-parity line: plain write, no parent.
                mem.push(MetaAccess {
                    addr: victim,
                    is_write: true,
                    kind: MetaKind::Parity,
                });
                continue;
            }
            mem.push(MetaAccess {
                addr: victim,
                is_write: true,
                kind: MetaKind::Tree,
            });
            processed += 1;
            if processed > MAX_WRITEBACK_CHAIN {
                continue; // account the write, skip further propagation
            }
            let node = geo.node_at(tree_base, victim);
            if let Some(parent) = geo.parent(node) {
                let paddr = geo.node_addr(tree_base, parent);
                let out = cache.access(part, paddr, true);
                if let Some(v2) = out.writeback {
                    pending.push(v2);
                }
                if !out.hit {
                    mem.push(MetaAccess {
                        addr: paddr,
                        is_write: false,
                        kind: MetaKind::Tree,
                    });
                }
            }
        }
    }

    /// VAULT-style separate MAC structure: one 64 B line holds MACs for
    /// 8 consecutive blocks. Returns whether the MAC missed on-chip.
    fn mac_access(
        &mut self,
        part: usize,
        block: u64,
        is_write: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> bool {
        let cache = self.mac_cache.as_mut().expect("separate MAC needs a cache");
        let addr = self.regions.mac_bases[part] + (block / 8) * 64;
        let out = cache.access(part, addr, is_write);
        if let Some(victim) = out.writeback {
            mem.push(MetaAccess {
                addr: victim,
                is_write: true,
                kind: MetaKind::Mac,
            });
        }
        if !out.hit {
            mem.push(MetaAccess {
                addr,
                is_write: false,
                kind: MetaKind::Mac,
            });
        }
        !out.hit
    }

    fn parity_group(&self, block: u64, share: u64) -> u64 {
        parity_group(block, share, self.cfg.rank_stride_blocks)
    }

    /// External fallback-parity line used when embedding is not viable:
    /// groups are laid out rank-major so consecutive blocks map to
    /// different parity lines (Section V-C).
    fn fallback_parity_line(&self, part: usize, block: u64) -> u64 {
        let geo = self.geo.as_ref().expect("embedded parity implies tree");
        let share = geo.parity_share();
        let s = self.cfg.rank_stride_blocks.max(1);
        let window = s.saturating_mul(share).min(geo.data_blocks()).max(1);
        let windows = (geo.data_blocks() / window).max(1);
        let group = (block % s) * windows + (block / window);
        self.regions.parity_bases[part] + (group / 8) * 64
    }

    fn parity_update(&mut self, part: usize, block: u64, mem: &mut Vec<MetaAccess>) {
        let base = self.regions.parity_bases[part];
        match self.spec.parity {
            ParityMode::None => {}
            ParityMode::PerBlock => {
                // One 64-bit parity word per block, 8 words per line.
                let line = base + (block / 8) * 64;
                if let Some(cache) = self.parity_cache.as_mut() {
                    // Coalescing write buffer: allocate without fetching;
                    // evicted entries become one masked write.
                    let out = cache.access(part, line, true);
                    if let Some(victim) = out.writeback {
                        mem.push(MetaAccess {
                            addr: victim,
                            is_write: true,
                            kind: MetaKind::Parity,
                        });
                    }
                } else {
                    // Baseline Synergy: every data write pays a masked
                    // parity write (a full-occupancy transaction).
                    mem.push(MetaAccess {
                        addr: line,
                        is_write: true,
                        kind: MetaKind::Parity,
                    });
                }
            }
            ParityMode::Shared(share) => {
                let group = self.parity_group(block, share);
                let line = base + (group / 8) * 64;
                if let Some(cache) = self.parity_cache.as_mut() {
                    // The cache holds parity *diffs*; eviction must RMW.
                    let out = cache.access(part, line, true);
                    if let Some(victim) = out.writeback {
                        mem.push(MetaAccess {
                            addr: victim,
                            is_write: false,
                            kind: MetaKind::Parity,
                        });
                        mem.push(MetaAccess {
                            addr: victim,
                            is_write: true,
                            kind: MetaKind::Parity,
                        });
                    }
                } else {
                    // Uncached shared parity: RMW on every data write.
                    mem.push(MetaAccess {
                        addr: line,
                        is_write: false,
                        kind: MetaKind::Parity,
                    });
                    mem.push(MetaAccess {
                        addr: line,
                        is_write: true,
                        kind: MetaKind::Parity,
                    });
                }
            }
            ParityMode::Embedded => {
                if self.embedding_viable() {
                    // Parity lives in the tree leaf the walk already
                    // fetched and dirtied: no extra traffic.
                } else {
                    // The mapping cannot co-locate a parity group in
                    // one leaf (Column): parity falls back to an
                    // external shared structure that shares the unified
                    // metadata cache — fetched on miss (the read half
                    // of the RMW), written back on eviction. Groups are
                    // laid out rank-major, so "consecutive cache lines
                    // are mapped to different shared parity blocks"
                    // (Section V-C) and writes do not coalesce.
                    let line = self.fallback_parity_line(part, block);
                    let cache = self.tree_cache.as_mut().expect("tree cache");
                    let out = cache.access(part, line, true);
                    if !out.hit {
                        mem.push(MetaAccess {
                            addr: line,
                            is_write: false,
                            kind: MetaKind::Parity,
                        });
                    }
                    if let Some(victim) = out.writeback {
                        self.unified_writeback(part, victim, mem);
                    }
                }
            }
        }
    }
}

impl SchemeModel for TreeWalkModel {
    fn family(&self) -> ModelFamily {
        ModelFamily::TreeWalk
    }

    fn access(
        &mut self,
        part: usize,
        block: u64,
        is_write: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> (u64, MissCase) {
        // 1. Counter-tree walk (verification and, on writes, counter
        //    increment).
        let tree_misses = if self.geo.is_some() {
            self.walk_tree(part, block, is_write, mem)
        } else {
            0
        };

        // 2. Separate MAC structure (VAULT-style only; Synergy's MAC
        //    rides the ECC pins for free).
        let mac_missed = if self.geo.is_some() && !self.spec.mac_inline {
            self.mac_access(part, block, is_write, mem)
        } else {
            false
        };

        // 3. Correction-parity update on writes.
        if is_write {
            self.parity_update(part, block, mem);
        }

        // 4. Local-counter overflow stalls (Figure 11 runs).
        let mut stall = 0;
        if is_write {
            let active = self.part_geos[part].as_ref().or(self.geo.as_ref());
            if let (Some(of), Some(geo)) = (self.overflow.as_mut(), active) {
                let node_key = ((part as u64) << 48) | geo.leaf_of(block).index;
                let block_key = ((part as u64) << 48) | block;
                stall = of.on_write(node_key, block_key);
            }
        }

        (stall, MissCase::classify(mac_missed, tree_misses))
    }

    fn drain(&mut self, mem: &mut Vec<MetaAccess>) {
        // The unified tree cache can also hold fallback shared-parity
        // lines (embedding not viable); label those as parity on the way
        // out, matching the eviction path in `process_writebacks`.
        if let Some(pc) = &mut self.tree_cache {
            for part in 0..pc.len() {
                let parity_base = self.regions.parity_bases[part];
                for addr in pc.partition_mut(part).flush() {
                    let kind = if addr >= parity_base {
                        MetaKind::Parity
                    } else {
                        MetaKind::Tree
                    };
                    mem.push(MetaAccess {
                        addr,
                        is_write: true,
                        kind,
                    });
                }
            }
        }
        let mut flush = |c: &mut Option<PartitionedCache>, kind: MetaKind, rmw: bool| {
            if let Some(pc) = c {
                for part in 0..pc.len() {
                    for addr in pc.partition_mut(part).flush() {
                        if rmw {
                            mem.push(MetaAccess {
                                addr,
                                is_write: false,
                                kind,
                            });
                        }
                        mem.push(MetaAccess {
                            addr,
                            is_write: true,
                            kind,
                        });
                    }
                }
            }
        };
        flush(&mut self.mac_cache, MetaKind::Mac, false);
        let shared = matches!(self.spec.parity, ParityMode::Shared(_));
        flush(&mut self.parity_cache, MetaKind::Parity, shared);
    }

    fn geometry(&self) -> Option<&TreeGeometry> {
        self.geo.as_ref()
    }

    fn active_geometry(&self, part: usize) -> Option<&TreeGeometry> {
        self.part_geos
            .get(part)
            .and_then(Option::as_ref)
            .or(self.geo.as_ref())
    }

    fn partitions(&self) -> usize {
        self.regions.tree_bases.len()
    }

    fn tree_base(&self, part: usize) -> u64 {
        self.regions.tree_bases[part]
    }

    fn mac_base(&self, part: usize) -> u64 {
        self.regions.mac_bases[part]
    }

    fn parity_base(&self, part: usize) -> u64 {
        self.regions.parity_bases[part]
    }

    fn region_span(&self, kind: MetaKind) -> u64 {
        let span = if self.spec.isolated {
            self.cfg.enclave_capacity
        } else {
            self.cfg.data_capacity
        };
        match kind {
            MetaKind::Tree => self.geo.as_ref().map_or(0, TreeGeometry::storage_bytes),
            MetaKind::Mac | MetaKind::Parity => span / 8,
        }
    }

    fn tree_cache_stats(&self) -> CacheStats {
        self.tree_cache
            .as_ref()
            .map(PartitionedCache::stats)
            .unwrap_or_default()
    }

    fn mac_cache_stats(&self) -> CacheStats {
        self.mac_cache
            .as_ref()
            .map(PartitionedCache::stats)
            .unwrap_or_default()
    }

    fn parity_cache_stats(&self) -> CacheStats {
        self.parity_cache
            .as_ref()
            .map(PartitionedCache::stats)
            .unwrap_or_default()
    }

    fn detects_errors(&self) -> bool {
        self.spec.tree != TreeKind::None
    }

    fn parity_group_share(&self) -> u64 {
        match self.spec.parity {
            ParityMode::None => 0,
            ParityMode::PerBlock => 1,
            ParityMode::Shared(share) => share,
            ParityMode::Embedded => self.geo.as_ref().map_or(0, |g| g.parity_share()),
        }
    }

    fn embedding_viable(&self) -> bool {
        let geo = self.geo.as_ref().expect("embedded parity implies tree");
        let s = self.cfg.rank_stride_blocks.max(1);
        s.saturating_mul(geo.parity_share()) <= geo.leaf_arity()
    }

    fn recovery_parity_addr(&self, part: usize, block: u64) -> Option<u64> {
        let base = self.regions.parity_bases[part];
        match self.spec.parity {
            ParityMode::None => None,
            ParityMode::PerBlock => Some(base + (block / 8) * 64),
            ParityMode::Shared(share) => {
                let group = self.parity_group(block, share);
                Some(base + (group / 8) * 64)
            }
            ParityMode::Embedded => {
                if self.embedding_viable() {
                    // Parity rides in the tree leaf covering the block.
                    let geo = self.geo.as_ref().expect("embedded parity implies tree");
                    let leaf = geo.leaf_of(block);
                    Some(geo.node_addr(self.regions.tree_bases[part], leaf))
                } else {
                    Some(self.fallback_parity_line(part, block))
                }
            }
        }
    }

    fn install_tree(&mut self, part: usize, data_blocks: u64, mem: &mut Vec<MetaAccess>) {
        if !self.spec.isolated || self.geo.is_none() {
            return;
        }
        let cap = self.cfg.enclave_capacity / 64;
        let blocks = data_blocks.clamp(1, cap);
        let geo = self
            .spec
            .tree
            .geometry(blocks)
            .expect("isolated schemes have a tree");
        // Any resident lines belong to a previous tenant's layout; the
        // destroy path already discarded them, but be safe against a
        // re-install without an intervening reset.
        if let Some(c) = self.tree_cache.as_mut() {
            c.partition_mut(part).discard();
        }
        let base = self.regions.tree_bases[part];
        mem.extend((0..geo.total_nodes()).map(|i| MetaAccess {
            addr: base + i * 64,
            is_write: true,
            kind: MetaKind::Tree,
        }));
        self.part_geos[part] = Some(geo);
    }

    fn grow_tree(&mut self, part: usize, data_blocks: u64, mem: &mut Vec<MetaAccess>) -> usize {
        if !self.spec.isolated || self.geo.is_none() {
            return 0;
        }
        let Some(old) = self.part_geos[part].as_ref() else {
            self.install_tree(part, data_blocks, mem);
            return 0;
        };
        let cap = self.cfg.enclave_capacity / 64;
        let blocks = data_blocks.clamp(1, cap);
        if blocks <= old.data_blocks() {
            return 0;
        }
        let old_nodes = old.total_nodes();
        let new = self
            .spec
            .tree
            .geometry(blocks)
            .expect("isolated schemes have a tree");
        let base = self.regions.tree_bases[part];
        let parity_base = self.regions.parity_bases[part];
        let before = mem.len();
        if let Some(c) = self.tree_cache.as_mut() {
            for addr in c.partition_mut(part).flush() {
                // The unified cache can hold fallback-parity lines;
                // label them as in the eviction path.
                let kind = if addr >= parity_base {
                    MetaKind::Parity
                } else {
                    MetaKind::Tree
                };
                mem.push(MetaAccess {
                    addr,
                    is_write: true,
                    kind,
                });
            }
        }
        let flushed = mem.len() - before;
        for i in 0..old_nodes {
            mem.push(MetaAccess {
                addr: base + i * 64,
                is_write: false,
                kind: MetaKind::Tree,
            });
        }
        for i in 0..new.total_nodes() {
            mem.push(MetaAccess {
                addr: base + i * 64,
                is_write: true,
                kind: MetaKind::Tree,
            });
        }
        self.part_geos[part] = Some(new);
        flushed
    }

    fn reset_partition(&mut self, part: usize, mem: &mut Vec<MetaAccess>) {
        if !self.spec.isolated {
            return;
        }
        let Some(geo) = self.part_geos[part].take() else {
            return;
        };
        for c in [
            &mut self.tree_cache,
            &mut self.mac_cache,
            &mut self.parity_cache,
        ]
        .into_iter()
        .flatten()
        {
            c.partition_mut(part).discard();
        }
        let base = self.regions.tree_bases[part];
        for i in 0..geo.total_nodes() {
            mem.push(MetaAccess {
                addr: base + i * 64,
                is_write: true,
                kind: MetaKind::Tree,
            });
        }
        if !self.spec.mac_inline {
            let mac_base = self.regions.mac_bases[part];
            for line in 0..geo.data_blocks().div_ceil(8) {
                mem.push(MetaAccess {
                    addr: mac_base + line * 64,
                    is_write: true,
                    kind: MetaKind::Mac,
                });
            }
        }
    }

    fn reset_leaves(
        &mut self,
        part: usize,
        first_block: u64,
        count: u64,
        rebuild_parity: bool,
        mem: &mut Vec<MetaAccess>,
    ) {
        let Some(geo) = self.part_geos[part].as_ref().or(self.geo.as_ref()) else {
            // No tree (Unsecure): nothing to reset, and such schemes
            // keep no parity either.
            return;
        };
        if count == 0 || first_block >= geo.data_blocks() {
            return;
        }
        let last = (first_block + count - 1).min(geo.data_blocks() - 1);
        let tree_base = self.regions.tree_bases[part];
        let leaf_addrs: Vec<u64> = (first_block / geo.leaf_arity()..=last / geo.leaf_arity())
            .map(|index| geo.node_addr(tree_base, NodeId { level: 0, index }))
            .collect();
        let mac_lines: Vec<u64> = if self.spec.mac_inline || self.mac_cache.is_none() {
            Vec::new()
        } else {
            let mac_base = self.regions.mac_bases[part];
            (first_block / 8..=last / 8)
                .map(|line| mac_base + line * 64)
                .collect()
        };
        let parity_base = self.regions.parity_bases[part];
        // (line address, pays RMW read) per touched parity line.
        let mut parity_lines: Vec<(u64, bool)> = Vec::new();
        if rebuild_parity {
            match self.spec.parity {
                ParityMode::None => {}
                ParityMode::PerBlock => {
                    for line in first_block / 8..=last / 8 {
                        parity_lines.push((parity_base + line * 64, false));
                    }
                }
                ParityMode::Shared(share) => {
                    let lines: BTreeSet<u64> = (first_block..=last)
                        .map(|b| parity_base + (self.parity_group(b, share) / 8) * 64)
                        .collect();
                    parity_lines.extend(lines.into_iter().map(|l| (l, true)));
                }
                ParityMode::Embedded => {
                    if !self.embedding_viable() {
                        let lines: BTreeSet<u64> = (first_block..=last)
                            .map(|b| self.fallback_parity_line(part, b))
                            .collect();
                        parity_lines.extend(lines.into_iter().map(|l| (l, true)));
                    }
                    // Viable embedding: the leaf rewrite carries the
                    // fresh parity; no extra lines.
                }
            }
        }

        if let Some(c) = self.tree_cache.as_mut() {
            let p = c.partition_mut(part);
            for &addr in &leaf_addrs {
                p.invalidate(addr);
            }
        }
        for &addr in &leaf_addrs {
            mem.push(MetaAccess {
                addr,
                is_write: true,
                kind: MetaKind::Tree,
            });
        }
        if let Some(c) = self.mac_cache.as_mut() {
            let p = c.partition_mut(part);
            for &addr in &mac_lines {
                p.invalidate(addr);
            }
        }
        for &addr in &mac_lines {
            mem.push(MetaAccess {
                addr,
                is_write: true,
                kind: MetaKind::Mac,
            });
        }
        for &(addr, rmw) in &parity_lines {
            // Fallback-embedded lines live in the unified tree cache;
            // a dedicated parity cache holds the others. Either way the
            // stale cached state is superseded by the rebuild.
            if let Some(c) = self.parity_cache.as_mut() {
                c.partition_mut(part).invalidate(addr);
            } else if let Some(c) = self.tree_cache.as_mut() {
                c.partition_mut(part).invalidate(addr);
            }
            if rmw {
                mem.push(MetaAccess {
                    addr,
                    is_write: false,
                    kind: MetaKind::Parity,
                });
            }
            mem.push(MetaAccess {
                addr,
                is_write: true,
                kind: MetaKind::Parity,
            });
        }
    }

    fn repartition_caches(&mut self, live: &[bool], mem: &mut Vec<MetaAccess>) {
        if !self.spec.isolated {
            return;
        }
        let parts = self.partitions();
        assert_eq!(live.len(), parts, "live mask must cover every partition");
        let ways = self.cfg.cache_ways;
        let min_slice = ways * 64;
        let live_count = live.iter().filter(|&&l| l).count();
        let total = self.slice_bytes * parts;
        let share = if live_count == 0 {
            min_slice
        } else {
            let reserved = (parts - live_count) * min_slice;
            largest_valid_capacity(total.saturating_sub(reserved) / live_count, ways)
        };
        let shared_parity = matches!(self.spec.parity, ParityMode::Shared(_));
        let parity_bases = self.regions.parity_bases.clone();
        for (cache, kind) in [
            (&mut self.tree_cache, MetaKind::Tree),
            (&mut self.mac_cache, MetaKind::Mac),
            (&mut self.parity_cache, MetaKind::Parity),
        ] {
            let Some(pc) = cache.as_mut() else { continue };
            for p in 0..parts {
                let target = if live[p] { share } else { min_slice };
                for addr in pc.resize_partition(p, target) {
                    let kind = if kind == MetaKind::Tree && addr >= parity_bases[p] {
                        MetaKind::Parity
                    } else {
                        kind
                    };
                    if kind == MetaKind::Parity && shared_parity {
                        // Spilled shared-parity diffs merge via RMW,
                        // as in the eviction and drain paths.
                        mem.push(MetaAccess {
                            addr,
                            is_write: false,
                            kind,
                        });
                    }
                    mem.push(MetaAccess {
                        addr,
                        is_write: true,
                        kind,
                    });
                }
            }
        }
    }
}

/// Hand-written: the partition count and each structure's presence
/// are fixed by the scheme and checked against the constructed model,
/// and lifecycle tree geometries are re-derived from their stored
/// block counts (`TreeGeometry` keeps `data_blocks` verbatim, so the
/// geometry round-trips exactly).
impl Persist for TreeWalkModel {
    fn save(&self, w: &mut SnapWriter) {
        w.section("TREE", 2);
        let blocks: Vec<Option<u64>> = self
            .part_geos
            .iter()
            .map(|g| g.as_ref().map(TreeGeometry::data_blocks))
            .collect();
        w.put(&blocks);
        save_fixed(w, &self.tree_cache);
        save_fixed(w, &self.mac_cache);
        save_fixed(w, &self.parity_cache);
        save_fixed(w, &self.overflow);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("TREE", 2)?;
        let at = r.pos();
        let blocks: Vec<Option<u64>> = r.get("partition data_blocks")?;
        if blocks.len() != self.part_geos.len() {
            return Err(SnapError::Corrupt {
                what: "partition count (config mismatch)",
                at,
            });
        }
        for (g, b) in self.part_geos.iter_mut().zip(blocks) {
            *g = match b {
                Some(b) => Some(self.spec.tree.geometry(b).ok_or(SnapError::Corrupt {
                    what: "partition geometry for treeless scheme",
                    at,
                })?),
                None => None,
            };
        }
        load_fixed(r, &mut self.tree_cache, "tree cache presence")?;
        load_fixed(r, &mut self.mac_cache, "mac cache presence")?;
        load_fixed(r, &mut self.parity_cache, "parity cache presence")?;
        load_fixed(r, &mut self.overflow, "overflow tracker presence")
    }
}

/// Save a structure the scheme may or may not have: presence, then
/// contents (the `Option` encoding).
fn save_fixed<T: Persist>(w: &mut SnapWriter, v: &Option<T>) {
    w.put(&v.is_some());
    if let Some(v) = v {
        w.put(v);
    }
}

/// Load what [`save_fixed`] wrote, refusing a snapshot that disagrees
/// with the constructed model about the structure's presence.
fn load_fixed<T: Persist>(
    r: &mut SnapReader,
    v: &mut Option<T>,
    what: &'static str,
) -> Result<(), SnapError> {
    let at = r.pos();
    match (r.bool(what)?, v) {
        (true, Some(v)) => v.load(r, what),
        (false, None) => Ok(()),
        _ => Err(SnapError::Corrupt { what, at }),
    }
}
