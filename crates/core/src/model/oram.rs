//! IRO-style integrity + reliability on Ring ORAM (arXiv:2012.14318).
//!
//! Data lives in the slots of a binary bucket tree; each block is
//! mapped to a random leaf, an access reads one block from every
//! bucket on the root-to-leaf path of its current position (Ring
//! ORAM's one-block-per-bucket online read), and the block is remapped
//! to a fresh position. Every `EVICT_RATE` accesses an eviction walks
//! one path in reverse-lexicographic leaf order, reading and
//! rewriting its buckets and updating the XOR parity covering the
//! written buckets (IRO's reliability layer: parity over ORAM buckets,
//! so a dead chip's share of a bucket is reconstructable).
//!
//! The position map and stash are on chip (the paper's recursion is
//! collapsed, as its evaluation configures); integrity rides in
//! per-block MACs inside the buckets, verified on the fly — no counter
//! tree, no metadata cache. Everything is a **pure function of the
//! access history**: position remapping uses a splitmix64 hash of
//! (block, per-block access count), evictions follow a deterministic
//! reverse-lexicographic schedule — which is what lets the
//! differential oracle replay the model exactly ([`OramShadow`]).

use std::collections::{BTreeSet, HashMap};

use itesp_snap::Persist;

use crate::engine::{EngineConfig, MetaAccess, MetaKind, MissCase};
use crate::scheme::ModelFamily;

use super::tree_walk::parity_group;
use super::SchemeModel;

/// Ring ORAM bucket capacity (Z real slots).
pub const BUCKET_SLOTS: u64 = 4;

/// Accesses between evictions (Ring ORAM's A parameter, scaled down to
/// the one-block-per-bucket read model).
pub const EVICT_RATE: u64 = 4;

const POS_SEED: u64 = 0x0013_350c_5a11_u64;

/// splitmix64 — the deterministic position-remap hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A block's first position: a pure function of its index.
pub fn initial_position(block: u64, leaves: u64) -> u64 {
    splitmix64(block ^ POS_SEED) % leaves
}

/// A block's position after its `n`-th access: a pure function of
/// (block, n), so any observer replaying the access history derives
/// the same position map.
pub fn next_position(block: u64, n: u64, leaves: u64) -> u64 {
    splitmix64(block.wrapping_mul(0xA24B_AED4_963E_E407) ^ n.rotate_left(17) ^ POS_SEED) % leaves
}

/// Reverse-lexicographic eviction leaf for eviction number `seq`.
pub fn eviction_leaf(seq: u64, levels: u32, leaves: u64) -> u64 {
    if levels == 0 {
        0
    } else {
        (seq % leaves).reverse_bits() >> (64 - levels)
    }
}

/// The deterministic ORAM layout shared by the model and its oracle
/// shadow: tree shape and region addressing.
#[derive(Debug, Clone, Copy)]
pub struct OramLayout {
    /// Leaf level of the bucket tree (root = level 0).
    pub levels: u32,
    /// `1 << levels`.
    pub leaves: u64,
    /// `2 * leaves - 1` buckets.
    pub bucket_count: u64,
    /// Base address of the bucket-tree region.
    pub tree_base: u64,
    /// Base address of the bucket-parity region.
    pub parity_base: u64,
    /// Rank stride for the recovery parity-group function.
    pub rank_stride_blocks: u64,
}

impl OramLayout {
    /// Derive the layout from the engine configuration.
    pub fn from_config(cfg: &EngineConfig) -> Self {
        let blocks = (cfg.data_capacity / 64).max(1);
        let leaves = (blocks / BUCKET_SLOTS).max(1).next_power_of_two();
        let levels = leaves.trailing_zeros();
        let bucket_count = 2 * leaves - 1;
        let tree_base = cfg.data_capacity;
        let parity_base = tree_base + bucket_count * 64;
        OramLayout {
            levels,
            leaves,
            bucket_count,
            tree_base,
            parity_base,
            rank_stride_blocks: cfg.rank_stride_blocks,
        }
    }

    /// Heap offset of the path bucket at `level` toward `leaf`.
    pub fn path_offset(&self, leaf: u64, level: u32) -> u64 {
        ((1u64 << level) - 1) + (leaf >> (self.levels - level))
    }

    /// Bucket-parity region size, line-aligned (one 8 B parity word per
    /// 8-bucket group).
    pub fn parity_span(&self) -> u64 {
        self.bucket_count.div_ceil(8) * 64
    }

    /// Append the root-to-leaf bucket reads for `leaf`.
    fn push_path_reads(&self, leaf: u64, mem: &mut Vec<MetaAccess>) {
        for level in 0..=self.levels {
            mem.push(MetaAccess {
                addr: self.tree_base + self.path_offset(leaf, level) * 64,
                is_write: false,
                kind: MetaKind::Tree,
            });
        }
    }

    /// Append one eviction: read the path, rewrite it, and RMW the
    /// parity line of every written bucket (deduped, ascending — the
    /// controller batches the XOR updates).
    fn push_eviction(&self, leaf: u64, mem: &mut Vec<MetaAccess>) {
        self.push_path_reads(leaf, mem);
        let mut lines = BTreeSet::new();
        for level in 0..=self.levels {
            let off = self.path_offset(leaf, level);
            mem.push(MetaAccess {
                addr: self.tree_base + off * 64,
                is_write: true,
                kind: MetaKind::Tree,
            });
            lines.insert(self.parity_base + (off / 8) * 64);
        }
        for line in lines {
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
}

/// Position-map + eviction-schedule state, advanced one access at a
/// time. The model drives one instance; the differential oracle drives
/// an [`OramShadow`] holding another and compares traffic exactly.
#[derive(Debug, Default, Clone, Persist)]
struct OramState {
    /// Current leaf per touched block (untouched blocks are at their
    /// `initial_position`).
    positions: HashMap<u64, u64>,
    /// Per-block access counts (the remap-function argument).
    counts: HashMap<u64, u64>,
    /// Accesses since the last eviction.
    pending_evict: u64,
    /// Evictions issued (reverse-lexicographic schedule index).
    evict_seq: u64,
}

impl OramState {
    /// Advance by one access, appending the traffic; returns the
    /// demand-path read count (the Figure 3 classification input).
    fn step(&mut self, layout: &OramLayout, block: u64, mem: &mut Vec<MetaAccess>) -> u32 {
        let pos = self
            .positions
            .get(&block)
            .copied()
            .unwrap_or_else(|| initial_position(block, layout.leaves));
        layout.push_path_reads(pos, mem);
        let n = self.counts.entry(block).or_insert(0);
        *n += 1;
        self.positions
            .insert(block, next_position(block, *n, layout.leaves));
        self.pending_evict += 1;
        if self.pending_evict == EVICT_RATE {
            self.pending_evict = 0;
            let leaf = eviction_leaf(self.evict_seq, layout.levels, layout.leaves);
            self.evict_seq += 1;
            layout.push_eviction(leaf, mem);
        }
        layout.levels + 1
    }
}

/// The ORAM [`SchemeModel`]. See module docs.
#[derive(Debug, Persist)]
#[persist(section = "ORAM", version = 1)]
pub struct OramModel {
    #[persist(skip)]
    layout: OramLayout,
    state: OramState,
}

impl OramModel {
    /// Build the model (the caller validated `cfg`).
    pub fn new(cfg: EngineConfig) -> Self {
        OramModel {
            layout: OramLayout::from_config(&cfg),
            state: OramState::default(),
        }
    }

    /// The deterministic layout (shared with the oracle shadow).
    pub fn layout(&self) -> &OramLayout {
        &self.layout
    }
}

impl SchemeModel for OramModel {
    fn family(&self) -> ModelFamily {
        ModelFamily::Oram
    }

    fn access(
        &mut self,
        _part: usize,
        block: u64,
        _is_write: bool,
        mem: &mut Vec<MetaAccess>,
    ) -> (u64, MissCase) {
        // Reads and writes are indistinguishable by design: both fetch
        // the full path and remap (that *is* the leakage protection).
        let reads = self.state.step(&self.layout, block, mem);
        (0, MissCase::classify(false, reads))
    }

    fn drain(&mut self, _mem: &mut Vec<MetaAccess>) {
        // The stash writes back through the eviction schedule; there is
        // no cached metadata to flush.
    }

    fn partitions(&self) -> usize {
        1
    }

    fn tree_base(&self, _part: usize) -> u64 {
        self.layout.tree_base
    }

    fn mac_base(&self, _part: usize) -> u64 {
        // MACs ride inside the buckets; no separate region.
        self.layout.parity_base + self.layout.parity_span()
    }

    fn parity_base(&self, _part: usize) -> u64 {
        self.layout.parity_base
    }

    fn region_span(&self, kind: MetaKind) -> u64 {
        match kind {
            MetaKind::Tree => self.layout.bucket_count * 64,
            MetaKind::Mac => 0,
            MetaKind::Parity => self.layout.parity_span(),
        }
    }

    fn detects_errors(&self) -> bool {
        // Per-block MACs inside the buckets.
        true
    }

    fn parity_group_share(&self) -> u64 {
        8
    }

    fn recovery_parity_addr(&self, _part: usize, block: u64) -> Option<u64> {
        // Bucket parity is XOR-shared by 8 blocks across ranks; the
        // recovery group of a data block follows the same cross-rank
        // group function as the paper's shared parity.
        let group = parity_group(block, 8, self.layout.rank_stride_blocks);
        Some(self.layout.parity_base + (group / 8) * 64)
    }
}

/// The oracle's replay of the ORAM access model: its own position map
/// and eviction schedule, advanced by the model's own
/// `OramState::step`, predict the exact transaction list of every
/// access. So it checks the model's wiring around `step` — one step
/// per access, on the right block, with the traffic passed through
/// unchanged — and not the remap or eviction algorithm, which both
/// sides share.
#[derive(Debug)]
pub struct OramShadow {
    layout: OramLayout,
    state: OramState,
    scratch: Vec<MetaAccess>,
}

impl OramShadow {
    /// Build the shadow from the same configuration as the engine.
    pub fn new(cfg: &EngineConfig) -> Self {
        OramShadow {
            layout: OramLayout::from_config(cfg),
            state: OramState::default(),
            scratch: Vec::new(),
        }
    }

    /// Advance one access and return the expected transactions.
    pub fn expect_access(&mut self, block: u64) -> &[MetaAccess] {
        self.scratch.clear();
        let mut mem = std::mem::take(&mut self.scratch);
        self.state.step(&self.layout, block, &mut mem);
        self.scratch = mem;
        &self.scratch
    }

    /// Expected Figure 3 class of every ORAM access (the demand path
    /// is always fetched in full).
    pub fn expected_case(&self) -> MissCase {
        MissCase::classify(false, self.layout.levels + 1)
    }

    /// The layout (for containment checks).
    pub fn layout(&self) -> &OramLayout {
        &self.layout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::scheme::Scheme;

    fn cfg(blocks: u64) -> EngineConfig {
        let mut c = EngineConfig::paper_default(Scheme::IrOram);
        c.data_capacity = blocks * 64;
        c
    }

    #[test]
    fn layout_shapes_the_bucket_tree() {
        let l = OramLayout::from_config(&cfg(1 << 12));
        // 4096 blocks / Z=4 = 1024 leaves.
        assert_eq!(l.leaves, 1 << 10);
        assert_eq!(l.levels, 10);
        assert_eq!(l.bucket_count, 2 * l.leaves - 1);
        // Root is the first bucket; leaves fill the tail.
        assert_eq!(l.path_offset(0, 0), 0);
        assert_eq!(l.path_offset(0, l.levels), l.leaves - 1);
        assert_eq!(l.path_offset(l.leaves - 1, l.levels), l.bucket_count - 1);
    }

    #[test]
    fn path_offsets_follow_heap_children() {
        let l = OramLayout::from_config(&cfg(1 << 12));
        for leaf in [0u64, 1, 511, 1023] {
            for level in 0..l.levels {
                let parent = l.path_offset(leaf, level);
                let child = l.path_offset(leaf, level + 1);
                assert!(
                    child == 2 * parent + 1 || child == 2 * parent + 2,
                    "leaf {leaf} level {level}: {child} not a child of {parent}"
                );
            }
        }
    }

    #[test]
    fn access_reads_one_bucket_per_level_and_remaps() {
        let mut m = OramModel::new(cfg(1 << 12));
        let mut mem = Vec::new();
        let (stall, case) = m.access(0, 42, false, &mut mem);
        assert_eq!(stall, 0);
        assert_eq!(case, MissCase::G);
        assert_eq!(mem.len() as u32, m.layout.levels + 1);
        assert!(mem.iter().all(|a| !a.is_write && a.kind == MetaKind::Tree));
        // The same block's next access walks a *different* path
        // (remapped) with overwhelming probability at 1024 leaves.
        let mut mem2 = Vec::new();
        m.access(0, 42, false, &mut mem2);
        assert_ne!(mem, mem2, "position must be remapped after an access");
    }

    #[test]
    fn eviction_fires_on_schedule_with_parity_rmw() {
        let mut m = OramModel::new(cfg(1 << 12));
        let per_path = (m.layout.levels + 1) as usize;
        for i in 0..EVICT_RATE - 1 {
            let mut mem = Vec::new();
            m.access(0, i, false, &mut mem);
            assert_eq!(mem.len(), per_path, "no eviction before the A-th access");
        }
        let mut mem = Vec::new();
        m.access(0, 99, true, &mut mem);
        let tree_reads = mem
            .iter()
            .filter(|a| a.kind == MetaKind::Tree && !a.is_write)
            .count();
        let tree_writes = mem
            .iter()
            .filter(|a| a.kind == MetaKind::Tree && a.is_write)
            .count();
        let parity_reads = mem
            .iter()
            .filter(|a| a.kind == MetaKind::Parity && !a.is_write)
            .count();
        let parity_writes = mem
            .iter()
            .filter(|a| a.kind == MetaKind::Parity && a.is_write)
            .count();
        // Demand path + eviction path reads; eviction path writes.
        assert_eq!(tree_reads, 2 * per_path);
        assert_eq!(tree_writes, per_path);
        // Bucket parity is a RMW per touched line.
        assert_eq!(parity_reads, parity_writes);
        assert!(parity_reads > 0);
        // First eviction targets the reverse-lex leaf of seq 0 = leaf 0.
        assert_eq!(eviction_leaf(0, m.layout.levels, m.layout.leaves), 0);
        // And the schedule visits distinct leaves before wrapping.
        let l = m.layout;
        let first_eight: BTreeSet<u64> = (0..8)
            .map(|s| eviction_leaf(s, l.levels, l.leaves))
            .collect();
        assert_eq!(first_eight.len(), 8);
    }

    #[test]
    fn shadow_predicts_the_model_exactly() {
        let c = cfg(1 << 12);
        let mut m = OramModel::new(c);
        let mut sh = OramShadow::new(&c);
        for i in 0..200u64 {
            let block = (i * 37) % (1 << 12);
            let mut mem = Vec::new();
            m.access(0, block, i % 3 == 0, &mut mem);
            assert_eq!(mem.as_slice(), sh.expect_access(block), "access {i}");
        }
    }

    #[test]
    fn traffic_stays_inside_the_regions() {
        let c = cfg(1 << 12);
        let mut m = OramModel::new(c);
        let tree_end = m.tree_base(0) + m.region_span(MetaKind::Tree);
        let parity_end = m.parity_base(0) + m.region_span(MetaKind::Parity);
        let mut mem = Vec::new();
        for i in 0..64u64 {
            m.access(0, i * 101 % (1 << 12), true, &mut mem);
        }
        for a in &mem {
            match a.kind {
                MetaKind::Tree => assert!(a.addr >= m.tree_base(0) && a.addr < tree_end),
                MetaKind::Parity => assert!(a.addr >= m.parity_base(0) && a.addr < parity_end),
                MetaKind::Mac => panic!("ORAM emits no MAC traffic"),
            }
        }
    }

    #[test]
    fn recovery_parity_is_stable_and_in_region() {
        let m = OramModel::new(cfg(1 << 12));
        let a1 = m.recovery_parity_addr(0, 77).unwrap();
        let a2 = m.recovery_parity_addr(0, 77).unwrap();
        assert_eq!(a1, a2, "recovery address must not depend on ORAM state");
        assert!(a1 >= m.parity_base(0));
        assert!(a1 < m.parity_base(0) + m.region_span(MetaKind::Parity));
        assert_eq!(m.parity_group_share(), 8);
    }
}
