//! Split-counter state and local-counter overflow tracking.
//!
//! High-arity trees shrink the per-block local counters (3 bits in
//! SYN128, 2 bits in ITESP 128, 5 bits in ITESP 64 — Section V-D). When
//! a block's local counter overflows, the node's shared global counter
//! is bumped and *every* block under the node must be re-encrypted; the
//! paper charges 4 K cycles for a 128-arity node. [`OverflowTracker`]
//! counts those events, mirroring the paper's separate "long Pin-based
//! simulation that does not model per-cycle effects, but models counter
//! values".

use std::collections::HashMap;

use itesp_snap::Persist;
use serde::{Deserialize, Serialize};

/// Overflow penalty for a 128-arity node, in CPU cycles (Section IV).
pub const OVERFLOW_PENALTY_128: u64 = 4096;

/// Tracks per-block write counts relative to each leaf node's last
/// re-encryption ("rebase"), and reports local-counter overflows.
#[derive(Debug, Clone, Serialize, Deserialize, Persist)]
#[persist(section = "OVFL", version = 2)]
pub struct OverflowTracker {
    /// Writes before a local counter of this width overflows.
    period: u64,
    /// Re-encryption penalty per overflow, scaled to the node arity.
    penalty: u64,
    /// Current rebase epoch per leaf node.
    node_epoch: HashMap<u64, u32>,
    /// Per-block (epoch, writes-since-rebase).
    block_writes: HashMap<u64, (u32, u64)>,
    overflows: u64,
}

impl OverflowTracker {
    /// Track overflows for `local_bits`-bit local counters on nodes of
    /// `arity` children.
    ///
    /// # Panics
    /// Panics if `local_bits` is 0 or larger than 32.
    pub fn new(local_bits: u32, arity: u64) -> Self {
        assert!((1..=32).contains(&local_bits));
        OverflowTracker {
            period: 1u64 << local_bits,
            // Re-encryption walks all children: cost scales with arity,
            // calibrated to 4K cycles at arity 128.
            penalty: OVERFLOW_PENALTY_128 * arity / 128,
            node_epoch: HashMap::new(),
            block_writes: HashMap::new(),
            overflows: 0,
        }
    }

    /// Record a write to `block` whose counters live in leaf `node`.
    /// Returns the stall penalty in CPU cycles (0 if no overflow).
    pub fn on_write(&mut self, node: u64, block: u64) -> u64 {
        let epoch = *self.node_epoch.entry(node).or_insert(0);
        let entry = self.block_writes.entry(block).or_insert((epoch, 0));
        if entry.0 != epoch {
            // Node was re-encrypted since this block's last write: the
            // local counter was reset.
            *entry = (epoch, 0);
        }
        entry.1 += 1;
        if entry.1 >= self.period {
            // Local counter overflow: bump the global counter and
            // re-encrypt everything under the node.
            self.overflows += 1;
            *self.node_epoch.get_mut(&node).expect("inserted above") += 1;
            self.penalty
        } else {
            0
        }
    }

    /// Total overflows observed.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }

    /// Stall cycles charged per overflow.
    pub fn penalty(&self) -> u64 {
        self.penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overflow_after_period_writes() {
        let mut t = OverflowTracker::new(2, 128); // period 4
        assert_eq!(t.on_write(0, 10), 0);
        assert_eq!(t.on_write(0, 10), 0);
        assert_eq!(t.on_write(0, 10), 0);
        assert_eq!(t.on_write(0, 10), OVERFLOW_PENALTY_128);
        assert_eq!(t.overflows(), 1);
    }

    #[test]
    fn rebase_resets_all_blocks_under_node() {
        let mut t = OverflowTracker::new(2, 128);
        // Block 11 accumulates 3 writes under node 0.
        for _ in 0..3 {
            assert_eq!(t.on_write(0, 11), 0);
        }
        // Block 10 overflows the node -> re-encryption resets block 11 too.
        for _ in 0..3 {
            t.on_write(0, 10);
        }
        assert!(t.on_write(0, 10) > 0);
        // Block 11 starts over: 4 more writes to overflow again.
        for _ in 0..3 {
            assert_eq!(t.on_write(0, 11), 0, "block 11 should have been reset");
        }
        assert!(t.on_write(0, 11) > 0);
    }

    #[test]
    fn wider_counters_overflow_less() {
        let mut narrow = OverflowTracker::new(2, 128);
        let mut wide = OverflowTracker::new(5, 128);
        for _ in 0..1000 {
            narrow.on_write(0, 1);
            wide.on_write(0, 1);
        }
        assert!(narrow.overflows() > 5 * wide.overflows());
    }

    #[test]
    fn penalty_scales_with_arity() {
        assert_eq!(OverflowTracker::new(3, 128).penalty(), 4096);
        assert_eq!(OverflowTracker::new(3, 64).penalty(), 2048);
    }

    #[test]
    fn independent_nodes_do_not_interact() {
        let mut t = OverflowTracker::new(2, 128);
        for _ in 0..3 {
            t.on_write(0, 1);
        }
        // Writes to another node's block don't advance node 0.
        for _ in 0..10 {
            t.on_write(7, 99);
        }
        assert!(t.on_write(0, 1) > 0, "node 0 was one write from overflow");
    }
}
