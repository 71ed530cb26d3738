//! Integrity-tree geometry.
//!
//! A counter tree covers a span of data blocks: leaf nodes hold the
//! per-block encryption counters (split into a shared global counter and
//! small local counters), and every upper node holds counters for its
//! children plus the hash linkage (MEE-style: the child's hash is
//! computed with a counter kept in the parent). The root lives on-chip
//! and is never fetched.
//!
//! Geometries reproduced here (Figures 6 and 7):
//!
//! * **VAULT** — leaf arity 64, then 32, then 16 for all upper levels;
//! * **VAULT-based ITESP** — leaf arity 32 (half the local counters are
//!   replaced by 4 parity words shared by 8 blocks each), upper levels
//!   as VAULT;
//! * **SYN128** (Morphable) — arity 128 throughout;
//! * **ITESP 64** — leaf arity 64 (5-bit locals + parities), 128 above;
//! * **ITESP 128** — arity 128 throughout (2-bit locals + parities).

use serde::Serialize;

/// Bytes per tree node (one cache block).
pub const NODE_BYTES: u64 = 64;

/// A node position: level 0 is the leaf level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct NodeId {
    pub level: u32,
    pub index: u64,
}

/// Shape of an integrity tree over a fixed span of data blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TreeGeometry {
    /// Data blocks covered by one leaf node.
    leaf_arity: u64,
    /// Child counts for level 1, level 2, ...; the last entry repeats.
    upper_arities: Vec<u64>,
    /// Total data blocks covered.
    data_blocks: u64,
    /// Node count per level, leaf level first, excluding the on-chip root.
    level_counts: Vec<u64>,
    /// Cumulative node offsets per level (for linear storage layout).
    level_offsets: Vec<u64>,
    /// Parity fields embedded per leaf (ITESP), 0 otherwise.
    parities_per_leaf: u64,
    /// Data blocks sharing one embedded parity.
    parity_share: u64,
    /// Local counter width in bits (for overflow modeling).
    local_counter_bits: u32,
}

impl TreeGeometry {
    /// Build a geometry; `data_blocks` is rounded up to one full leaf.
    ///
    /// # Panics
    /// Panics if arities are zero or `data_blocks` is zero.
    pub fn new(
        leaf_arity: u64,
        upper_arities: Vec<u64>,
        data_blocks: u64,
        parities_per_leaf: u64,
        parity_share: u64,
        local_counter_bits: u32,
    ) -> Self {
        assert!(leaf_arity > 0 && data_blocks > 0);
        assert!(!upper_arities.is_empty() && upper_arities.iter().all(|&a| a > 1));
        let mut level_counts = vec![data_blocks.div_ceil(leaf_arity)];
        while *level_counts.last().expect("nonempty") > 1 {
            let level = level_counts.len() - 1; // arity index for next level up
            let arity = *upper_arities
                .get(level)
                .unwrap_or_else(|| upper_arities.last().expect("nonempty"));
            let next = level_counts.last().unwrap().div_ceil(arity);
            if next == 1 {
                // A single node at the next level is the on-chip root;
                // don't store it.
                break;
            }
            level_counts.push(next);
        }
        let mut level_offsets = Vec::with_capacity(level_counts.len());
        let mut acc = 0;
        for &c in &level_counts {
            level_offsets.push(acc);
            acc += c;
        }
        TreeGeometry {
            leaf_arity,
            upper_arities,
            data_blocks,
            level_counts,
            level_offsets,
            parities_per_leaf,
            parity_share,
            local_counter_bits,
        }
    }

    /// VAULT: arity 64 / 32 / 16 / 16 / ... with 6-bit local counters.
    pub fn vault(data_blocks: u64) -> Self {
        Self::new(64, vec![32, 16], data_blocks, 0, 0, 6)
    }

    /// VAULT-based ITESP: leaf arity 32 with 4 embedded parities shared
    /// by 8 blocks each (Figure 6, bottom organization), 4-bit locals.
    pub fn vault_itesp(data_blocks: u64) -> Self {
        Self::new(32, vec![32, 16], data_blocks, 4, 8, 4)
    }

    /// SYN128: Morphable-counter tree, arity 128 throughout, 3-bit locals.
    pub fn syn128(data_blocks: u64) -> Self {
        Self::new(128, vec![128], data_blocks, 0, 0, 3)
    }

    /// ITESP 64: leaf arity 64 (5-bit locals + 8 parities shared by 8),
    /// arity 128 above (Figure 7b).
    pub fn itesp64(data_blocks: u64) -> Self {
        Self::new(64, vec![128], data_blocks, 8, 8, 5)
    }

    /// ITESP 128: arity 128 throughout with 2-bit locals + embedded
    /// parity (Figure 7c).
    pub fn itesp128(data_blocks: u64) -> Self {
        Self::new(128, vec![128], data_blocks, 16, 8, 2)
    }

    pub fn leaf_arity(&self) -> u64 {
        self.leaf_arity
    }

    pub fn data_blocks(&self) -> u64 {
        self.data_blocks
    }

    pub fn local_counter_bits(&self) -> u32 {
        self.local_counter_bits
    }

    pub fn parities_per_leaf(&self) -> u64 {
        self.parities_per_leaf
    }

    pub fn parity_share(&self) -> u64 {
        self.parity_share
    }

    /// Number of stored (in-memory) levels; the root above them is
    /// on-chip.
    pub fn depth(&self) -> u32 {
        self.level_counts.len() as u32
    }

    /// Nodes stored in memory across all levels.
    pub fn total_nodes(&self) -> u64 {
        self.level_counts.iter().sum()
    }

    /// Bytes of in-memory tree storage.
    pub fn storage_bytes(&self) -> u64 {
        self.total_nodes() * NODE_BYTES
    }

    /// Tree storage as a fraction of covered data (Table I column).
    pub fn storage_overhead(&self) -> f64 {
        self.storage_bytes() as f64 / (self.data_blocks * 64) as f64
    }

    /// Number of stored nodes at `level` (level 0 = leaves).
    ///
    /// # Panics
    /// Panics if `level >= depth()`.
    pub fn level_count(&self, level: u32) -> u64 {
        self.level_counts[level as usize]
    }

    /// Children per node at `level` (counters per leaf for level 0).
    pub fn child_arity(&self, level: u32) -> u64 {
        if level == 0 {
            self.leaf_arity
        } else {
            *self
                .upper_arities
                .get((level - 1) as usize)
                .unwrap_or_else(|| self.upper_arities.last().expect("nonempty"))
        }
    }

    /// Leaf node covering data block `block`.
    ///
    /// # Panics
    /// Panics if `block` is outside the covered span.
    pub fn leaf_of(&self, block: u64) -> NodeId {
        assert!(block < self.data_blocks.next_multiple_of(self.leaf_arity));
        NodeId {
            level: 0,
            index: block / self.leaf_arity,
        }
    }

    /// Parent of `node`, or `None` if the parent is the on-chip root.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let next = node.level + 1;
        if next >= self.depth() {
            return None;
        }
        let arity = *self
            .upper_arities
            .get(node.level as usize)
            .unwrap_or_else(|| self.upper_arities.last().expect("nonempty"));
        Some(NodeId {
            level: next,
            index: node.index / arity,
        })
    }

    /// Byte address of `node` in a linear layout starting at `base`.
    pub fn node_addr(&self, base: u64, node: NodeId) -> u64 {
        debug_assert!(node.index < self.level_counts[node.level as usize]);
        base + (self.level_offsets[node.level as usize] + node.index) * NODE_BYTES
    }

    /// Inverse of [`Self::node_addr`]: which node does `addr` hold?
    ///
    /// # Panics
    /// Panics if `addr` is outside `[base, base + storage_bytes)`.
    pub fn node_at(&self, base: u64, addr: u64) -> NodeId {
        let node_index = (addr - base) / NODE_BYTES;
        assert!(node_index < self.total_nodes(), "address outside tree");
        // Levels are few (<= ~6); linear scan is fine.
        let mut level = 0;
        for (l, &off) in self.level_offsets.iter().enumerate() {
            if node_index >= off {
                level = l;
            }
        }
        NodeId {
            level: level as u32,
            index: node_index - self.level_offsets[level],
        }
    }

    /// Ancestors of the leaf covering `block`, leaf first, root excluded.
    pub fn walk(&self, block: u64) -> Walk<'_> {
        Walk {
            geo: self,
            next: Some(self.leaf_of(block)),
        }
    }
}

/// Iterator over a leaf-to-top path. See [`TreeGeometry::walk`].
#[derive(Debug)]
pub struct Walk<'a> {
    geo: &'a TreeGeometry,
    next: Option<NodeId>,
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.geo.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 GB of data blocks.
    const BLOCKS_1GB: u64 = (1 << 30) / 64;

    #[test]
    fn vault_level_structure() {
        let g = TreeGeometry::vault(BLOCKS_1GB);
        // 16M blocks -> 256K leaves -> 8K L1 -> 512 L2 -> 32 L3 -> 2 L4
        // -> 1 (root, on-chip).
        assert_eq!(g.depth(), 5);
        assert_eq!(g.total_nodes(), 262_144 + 8192 + 512 + 32 + 2);
    }

    #[test]
    fn walk_ends_below_root() {
        let g = TreeGeometry::vault(BLOCKS_1GB);
        let path: Vec<_> = g.walk(12345).collect();
        assert_eq!(path.len() as u32, g.depth());
        assert_eq!(path[0], g.leaf_of(12345));
        for w in path.windows(2) {
            assert_eq!(w[1].level, w[0].level + 1);
        }
    }

    #[test]
    fn vault_overhead_is_about_1_6_percent() {
        let g = TreeGeometry::vault(BLOCKS_1GB * 32);
        let o = g.storage_overhead();
        assert!((o - 0.016).abs() < 0.001, "overhead {o}");
    }

    #[test]
    fn syn128_overhead_is_about_0_8_percent() {
        let g = TreeGeometry::syn128(BLOCKS_1GB * 32);
        let o = g.storage_overhead();
        assert!((o - 0.008).abs() < 0.0005, "overhead {o}");
    }

    #[test]
    fn itesp64_overhead_is_about_1_6_percent() {
        let g = TreeGeometry::itesp64(BLOCKS_1GB * 32);
        let o = g.storage_overhead();
        assert!((o - 0.016).abs() < 0.001, "overhead {o}");
    }

    #[test]
    fn itesp_leaf_covers_half_the_blocks_of_vault() {
        let v = TreeGeometry::vault(BLOCKS_1GB);
        let i = TreeGeometry::vault_itesp(BLOCKS_1GB);
        assert_eq!(v.leaf_arity(), 2 * i.leaf_arity());
        // Twice the leaves: the "larger tree" of Section III-D.
        assert_eq!(i.walk(0).count() as u32, i.depth(),);
        assert!(i.total_nodes() > v.total_nodes());
    }

    #[test]
    fn node_addresses_are_dense_and_invertible() {
        let g = TreeGeometry::vault(1 << 20);
        let base = 0x4000_0000;
        let mut seen = std::collections::HashSet::new();
        for block in (0..(1 << 20)).step_by(4097) {
            for node in g.walk(block) {
                let addr = g.node_addr(base, node);
                assert_eq!(g.node_at(base, addr), node);
                seen.insert(addr);
            }
        }
        assert!(seen.len() > 100);
        for &a in &seen {
            assert!(a >= base && a < base + g.storage_bytes());
        }
    }

    #[test]
    fn consecutive_blocks_share_a_leaf() {
        let g = TreeGeometry::vault(1 << 20);
        assert_eq!(g.leaf_of(0), g.leaf_of(63));
        assert_ne!(g.leaf_of(63), g.leaf_of(64));
    }

    #[test]
    fn parent_aggregates_children() {
        let g = TreeGeometry::vault(1 << 20);
        let l0 = g.leaf_of(0);
        let l31 = g.leaf_of(31 * 64);
        let l32 = g.leaf_of(32 * 64);
        assert_eq!(g.parent(l0), g.parent(l31));
        assert_ne!(g.parent(l0), g.parent(l32));
    }

    #[test]
    fn embedded_parity_parameters() {
        let g = TreeGeometry::vault_itesp(1 << 20);
        assert_eq!(g.parities_per_leaf(), 4);
        assert_eq!(g.parity_share(), 8);
        // 4 parities x 8 blocks each = the leaf's 32-block span.
        assert_eq!(g.parities_per_leaf() * g.parity_share(), g.leaf_arity());
        let g = TreeGeometry::itesp128(1 << 20);
        assert_eq!(g.parities_per_leaf() * g.parity_share(), g.leaf_arity());
    }

    #[test]
    fn local_counter_widths_match_figure_7() {
        assert_eq!(TreeGeometry::syn128(1 << 20).local_counter_bits(), 3);
        assert_eq!(TreeGeometry::itesp64(1 << 20).local_counter_bits(), 5);
        assert_eq!(TreeGeometry::itesp128(1 << 20).local_counter_bits(), 2);
    }

    #[test]
    fn tiny_tree_has_single_stored_level() {
        // 128 blocks under VAULT: 2 leaves, parent is the on-chip root.
        let g = TreeGeometry::vault(128);
        assert_eq!(g.depth(), 1);
        assert_eq!(g.walk(0).count(), 1);
    }
}
