//! Dense leaf-id allocation with safe recycling.
//!
//! Leaf-ids index an enclave's private tree: the paper keeps them
//! dense (first-touch order) so a footprint-sized tree stays compact.
//! Under churn the same density demands recycling — and recycling is
//! where replay attacks live, so the allocator is strict: a leaf is
//! either live or free, never both, and the caller is told whether a
//! grant is fresh (already covered by tree init) or recycled (must be
//! counter-reset before use).

use std::collections::BTreeSet;

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

/// The result of [`LeafAllocator::alloc`]: the id, tagged with whether
/// it has a history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafGrant {
    /// Never handed out before; its tree leaf was zeroed by the
    /// install/grow initialization pass.
    Fresh(u64),
    /// Previously owned and freed; its counters were reset at free
    /// time, but the caller accounts it separately because recycling
    /// is the security-sensitive path.
    Recycled(u64),
}

impl LeafGrant {
    /// The granted leaf-id, regardless of provenance.
    pub fn leaf(self) -> u64 {
        match self {
            LeafGrant::Fresh(l) | LeafGrant::Recycled(l) => l,
        }
    }
}

/// First-touch leaf-id allocator for one enclave: dense fresh ids up
/// to the tree's current leaf capacity, plus a LIFO free list of
/// recycled ids.
#[derive(Debug, Clone, Default)]
pub struct LeafAllocator {
    /// Leaf-ids the current tree geometry can address.
    capacity: u64,
    /// Next never-used id (fresh ids are `0..next`, handed out in
    /// order — the paper's dense first-touch assignment).
    next: u64,
    /// Freed ids, reused most-recently-freed first.
    free: Vec<u64>,
    live: BTreeSet<u64>,
}

impl LeafAllocator {
    pub fn new(capacity: u64) -> Self {
        LeafAllocator {
            capacity,
            next: 0,
            free: Vec::new(),
            live: BTreeSet::new(),
        }
    }

    /// Grant a leaf-id, preferring the free list (keeps `next` dense).
    /// `None` means the tree is out of leaves and must grow first.
    pub fn alloc(&mut self) -> Option<LeafGrant> {
        let grant = if let Some(leaf) = self.free.pop() {
            LeafGrant::Recycled(leaf)
        } else if self.next < self.capacity {
            self.next += 1;
            LeafGrant::Fresh(self.next - 1)
        } else {
            return None;
        };
        let inserted = self.live.insert(grant.leaf());
        debug_assert!(inserted, "granted a leaf that was already live");
        Some(grant)
    }

    /// Return a leaf to the free list.
    ///
    /// # Panics
    /// Panics if the leaf is not currently live — a double free here
    /// would let two owners share one counter slot.
    pub fn free(&mut self, leaf: u64) {
        assert!(
            self.live.remove(&leaf),
            "freeing a leaf that is not live: {leaf}"
        );
        self.free.push(leaf);
    }

    /// Raise the capacity after the tree grew. Never shrinks: live
    /// leaves above a smaller capacity would become unaddressable.
    pub fn grow(&mut self, new_capacity: u64) {
        assert!(
            new_capacity >= self.capacity,
            "allocator capacity cannot shrink ({} -> {new_capacity})",
            self.capacity
        );
        self.capacity = new_capacity;
    }

    pub fn is_live(&self, leaf: u64) -> bool {
        self.live.contains(&leaf)
    }

    pub fn live_count(&self) -> u64 {
        self.live.len() as u64
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Highest fresh id handed out so far (the dense watermark).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

/// Hand-written: `load` re-validates the allocator invariant — a leaf
/// is live or free, never both, and `next` never passes `capacity` —
/// so a corrupt snapshot cannot hand one counter slot to two owners.
/// The free list keeps its LIFO order (recycling order is behavior,
/// not just bookkeeping).
impl Persist for LeafAllocator {
    fn save(&self, w: &mut SnapWriter) {
        w.section("LEAF", 1);
        w.put(&self.capacity);
        w.put(&self.next);
        w.put(&self.free);
        w.put(&self.live);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("LEAF", 1)?;
        self.capacity.load(r, "allocator capacity")?;
        self.next.load(r, "allocator next")?;
        self.free.load(r, "allocator free list")?;
        self.live.load(r, "allocator live set")?;
        if self.next > self.capacity || self.free.iter().any(|l| self.live.contains(l)) {
            return Err(SnapError::Corrupt {
                what: "allocator invariant (live/free overlap or next past capacity)",
                at: r.pos(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_dense_and_in_order() {
        let mut a = LeafAllocator::new(4);
        let got: Vec<_> = (0..4).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(
            got,
            vec![
                LeafGrant::Fresh(0),
                LeafGrant::Fresh(1),
                LeafGrant::Fresh(2),
                LeafGrant::Fresh(3)
            ]
        );
        assert_eq!(a.alloc(), None, "capacity 4 exhausted");
    }

    #[test]
    fn recycling_is_lifo_and_tagged() {
        let mut a = LeafAllocator::new(8);
        for _ in 0..3 {
            a.alloc().unwrap();
        }
        a.free(1);
        a.free(2);
        assert_eq!(a.alloc(), Some(LeafGrant::Recycled(2)));
        assert_eq!(a.alloc(), Some(LeafGrant::Recycled(1)));
        // Free list drained: back to dense fresh ids.
        assert_eq!(a.alloc(), Some(LeafGrant::Fresh(3)));
    }

    #[test]
    fn a_leaf_is_never_live_twice() {
        let mut a = LeafAllocator::new(2);
        a.alloc().unwrap();
        a.alloc().unwrap();
        a.free(0);
        assert!(!a.is_live(0));
        assert_eq!(a.alloc(), Some(LeafGrant::Recycled(0)));
        assert!(a.is_live(0));
        // While 0 is live it cannot come out of the allocator again.
        assert_eq!(a.alloc(), None);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_free_panics() {
        let mut a = LeafAllocator::new(2);
        a.alloc().unwrap();
        a.free(0);
        a.free(0);
    }

    #[test]
    fn grow_extends_the_fresh_range() {
        let mut a = LeafAllocator::new(1);
        a.alloc().unwrap();
        assert_eq!(a.alloc(), None);
        a.grow(3);
        assert_eq!(a.alloc(), Some(LeafGrant::Fresh(1)));
        assert_eq!(a.alloc(), Some(LeafGrant::Fresh(2)));
        assert_eq!(a.live_count(), 3);
        assert_eq!(a.high_water(), 3);
    }
}
