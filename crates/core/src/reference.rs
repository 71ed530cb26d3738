//! Scalar reference twin of the security engine's access path.
//!
//! [`ReferenceEngine`] is to [`crate::engine::SecurityEngine`] what the
//! DRAM model's `ReferenceChannel` is to its event-driven channel: a
//! deliberately plain, one-step-at-a-time implementation of the same
//! semantics, kept verbatim while the engine evolves behind its
//! [`crate::model::SchemeModel`] seam. It is one flat struct with no
//! model trait, lifecycle or snapshot state: it walks every tree level
//! through the cache on every access and filters one request at a time.
//!
//! The lockstep equivalence tests (`crates/oracle`) drive both engines
//! with identical randomized request streams across all schemes and
//! assert byte-identical transactions, classifications, and statistics.
//! Any divergence is a bug in the optimized path, never grounds to
//! adjust this twin — changes here must re-derive from the paper's
//! semantics, not from what the optimized engine happens to do.

use crate::cache::PartitionedCache;
use crate::counters::OverflowTracker;
use crate::engine::{AccessOutcome, EngineConfig, EngineStats, MetaAccess, MetaKind, MissCase};
use crate::scheme::{ParityMode, SchemeSpec, TreeKind};
use crate::tree::TreeGeometry;

/// Cap on dirty-writeback cascade processing per access — must match
/// the optimized engine's constant.
const MAX_WRITEBACK_CHAIN: usize = 32;

/// The scalar reference engine. Construction mirrors
/// [`crate::engine::SecurityEngine::try_new`] exactly, so both engines
/// start from identical cache geometry and metadata regions.
#[derive(Debug)]
pub struct ReferenceEngine {
    cfg: EngineConfig,
    spec: SchemeSpec,
    geo: Option<TreeGeometry>,
    tree_cache: Option<PartitionedCache>,
    mac_cache: Option<PartitionedCache>,
    parity_cache: Option<PartitionedCache>,
    overflow: Option<OverflowTracker>,
    tree_bases: Vec<u64>,
    mac_bases: Vec<u64>,
    parity_bases: Vec<u64>,
    stats: EngineStats,
}

impl ReferenceEngine {
    /// Build the reference engine for `cfg`.
    ///
    /// # Panics
    /// Panics on an invalid configuration (the optimized engine's
    /// [`EngineConfig::validate`] rules).
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let spec = cfg.scheme.spec();
        let span = if spec.isolated {
            cfg.enclave_capacity
        } else {
            cfg.data_capacity
        };
        let geo = spec.tree.geometry(span / 64);

        let parts = if spec.isolated { cfg.enclaves } else { 1 };
        let per_part_budget = cfg.metadata_cache_bytes / parts;
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

        ReferenceEngine {
            cfg,
            spec,
            geo,
            tree_cache,
            mac_cache,
            parity_cache,
            overflow,
            tree_bases,
            mac_bases,
            parity_bases,
            stats: EngineStats::default(),
        }
    }

    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    fn locate(&self, enclave: usize, paddr: u64, enclave_block: u64) -> (usize, u64) {
        if self.spec.isolated {
            (enclave, enclave_block)
        } else {
            (0, paddr / 64)
        }
    }

    /// Filter one LLC-filtered data access — the scalar twin of
    /// [`crate::engine::SecurityEngine::on_access`].
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

        let tree_misses = if self.geo.is_some() {
            self.walk_tree(part, block, is_write, &mut mem)
        } else {
            0
        };

        let mac_missed = if self.geo.is_some() && !self.spec.mac_inline {
            self.mac_access(part, block, is_write, &mut mem)
        } else {
            false
        };

        if is_write {
            self.parity_update(part, block, &mut mem);
        }

        let mut stall = 0;
        if is_write {
            if let (Some(of), Some(geo)) = (self.overflow.as_mut(), self.geo.as_ref()) {
                let node_key = ((part as u64) << 48) | geo.leaf_of(block).index;
                let block_key = ((part as u64) << 48) | block;
                let penalty = of.on_write(node_key, block_key);
                if penalty > 0 {
                    self.stats.overflows += 1;
                    self.stats.overflow_stall_cycles += penalty;
                    stall = penalty;
                }
            }
        }

        let case = MissCase::classify(mac_missed, tree_misses);
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

    /// Leaf-to-top walk through the cache until the first on-chip hit.
    fn walk_tree(
        &mut self,
        part: usize,
        block: u64,
        dirty_leaf: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> u32 {
        let geo = self.geo.as_ref().expect("walk_tree requires a tree");
        let cache = self.tree_cache.as_mut().expect("tree implies tree cache");
        let base = self.tree_bases[part];

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

        self.process_writebacks(part, pending, mem);
        misses
    }

    fn process_writebacks(
        &mut self,
        part: usize,
        mut pending: Vec<u64>,
        mem: &mut Vec<MetaAccess>,
    ) {
        let geo = self.geo.as_ref().expect("writebacks imply a tree");
        let cache = self.tree_cache.as_mut().expect("tree cache");
        let tree_base = self.tree_bases[part];
        let parity_base = self.parity_bases[part];
        let mut processed = 0;
        while let Some(victim) = pending.pop() {
            if victim >= parity_base {
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
                continue;
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

    fn mac_access(
        &mut self,
        part: usize,
        block: u64,
        is_write: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> bool {
        let cache = self.mac_cache.as_mut().expect("separate MAC needs a cache");
        let addr = self.mac_bases[part] + (block / 8) * 64;
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
        let s = self.cfg.rank_stride_blocks.max(1);
        let window = s.saturating_mul(share);
        (block / window) * s + (block % s)
    }

    fn embedding_viable(&self) -> bool {
        let geo = self.geo.as_ref().expect("embedded parity implies tree");
        let s = self.cfg.rank_stride_blocks.max(1);
        s.saturating_mul(geo.parity_share()) <= geo.leaf_arity()
    }

    fn fallback_parity_line(&self, part: usize, block: u64) -> u64 {
        let geo = self.geo.as_ref().expect("embedded parity implies tree");
        let share = geo.parity_share();
        let s = self.cfg.rank_stride_blocks.max(1);
        let window = s.saturating_mul(share).min(geo.data_blocks()).max(1);
        let windows = (geo.data_blocks() / window).max(1);
        let group = (block % s) * windows + (block / window);
        self.parity_bases[part] + (group / 8) * 64
    }

    fn parity_update(&mut self, part: usize, block: u64, mem: &mut Vec<MetaAccess>) {
        let base = self.parity_bases[part];
        match self.spec.parity {
            ParityMode::None => {}
            ParityMode::PerBlock => {
                let line = base + (block / 8) * 64;
                if let Some(cache) = self.parity_cache.as_mut() {
                    let out = cache.access(part, line, true);
                    if let Some(victim) = out.writeback {
                        mem.push(MetaAccess {
                            addr: victim,
                            is_write: true,
                            kind: MetaKind::Parity,
                        });
                    }
                } else {
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
                    // Parity rides in the already-dirtied tree leaf.
                } else {
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
                        self.process_writebacks(part, vec![victim], mem);
                    }
                }
            }
        }
    }
}
