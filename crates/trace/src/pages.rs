//! Physical page allocation and per-enclave leaf-id assignment.
//!
//! The baseline systems build one integrity tree over *physical* page
//! numbers, so OS page placement decides which pages share tree nodes.
//! The paper captures real placement with page-table dumps; we model
//! the same effect with a **fragmented free list**: the allocator hands
//! out short runs ("extents") of contiguous pages scattered across the
//! physical span, the way a long-running kernel's free list looks. Two
//! consequences, both central to Section II-D:
//!
//! 1. a program's temporally-adjacent pages land in different physical
//!    neighborhoods, so upper tree nodes (which cover *physically*
//!    consecutive pages) aggregate unrelated pages;
//! 2. co-scheduled programs split each extent between them, so tree
//!    nodes intermingle enclaves — the interference and leakage the
//!    paper attacks.
//!
//! The proposed isolation instead assigns each enclave page a dense
//! *leaf-id* in first-touch order within its private tree
//! (Section III-A), restoring temporal adjacency regardless of where
//! the OS put the page. [`PageMapper`] implements both mappings.

use std::collections::{HashMap, HashSet};

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::record::{page_of, page_offset, PAGE_BYTES};

/// Per-program virtual-to-physical and virtual-to-leaf-id mappings.
#[derive(Debug, Clone, Default, Serialize, Deserialize, Persist)]
pub struct ProgramMap {
    /// Virtual page number -> physical page number.
    v2p: HashMap<u64, u64>,
    /// Virtual page number -> leaf-id (dense, first-touch order).
    v2leaf: HashMap<u64, u64>,
    next_leaf: u64,
}

impl ProgramMap {
    /// Pages this program has touched.
    pub fn pages_touched(&self) -> usize {
        self.v2p.len()
    }
}

/// A translation result for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Translation {
    /// Physical byte address.
    pub paddr: u64,
    /// Dense per-enclave page id (the isolated tree's leaf-id space).
    pub leaf_page: u64,
}

/// How the simulated OS free list hands out physical pages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Persist)]
pub enum FreeListModel {
    /// Pristine machine: one giant extent, pages handed out in order.
    Sequential,
    /// Long-running machine: extents of geometrically-distributed
    /// length (given mean) scattered uniformly over the span.
    Fragmented { mean_extent_pages: f64, seed: u64 },
}

/// System-wide first-touch page allocator for a set of co-scheduled
/// programs.
#[derive(Debug, Clone)]
pub struct PageMapper {
    programs: Vec<ProgramMap>,
    phys_page_limit: u64,
    model: FreeListModel,
    rng: StdRng,
    /// Pages already allocated (fragmented mode only).
    used: HashSet<u64>,
    /// Sequential-mode cursor.
    next_seq: u64,
    /// Current extent: next page and pages remaining.
    extent_next: u64,
    extent_left: u64,
    pages_allocated: u64,
}

impl PageMapper {
    /// Pristine free list: pages allocated in physical order.
    pub fn sequential(programs: usize, phys_bytes: u64) -> Self {
        Self::with_model(programs, phys_bytes, FreeListModel::Sequential)
    }

    /// Fragmented free list with the given mean extent length (pages).
    ///
    /// # Panics
    /// Panics if `mean_extent_pages < 1`.
    pub fn fragmented(programs: usize, phys_bytes: u64, mean_extent_pages: f64, seed: u64) -> Self {
        assert!(mean_extent_pages >= 1.0);
        Self::with_model(
            programs,
            phys_bytes,
            FreeListModel::Fragmented {
                mean_extent_pages,
                seed,
            },
        )
    }

    /// Build for `programs` programs over `phys_bytes` of allocatable
    /// physical memory under the chosen free-list model.
    pub fn with_model(programs: usize, phys_bytes: u64, model: FreeListModel) -> Self {
        let seed = match model {
            FreeListModel::Sequential => 0,
            FreeListModel::Fragmented { seed, .. } => seed,
        };
        PageMapper {
            programs: vec![ProgramMap::default(); programs],
            phys_page_limit: (phys_bytes / PAGE_BYTES).max(1),
            model,
            rng: StdRng::seed_from_u64(seed),
            used: HashSet::new(),
            next_seq: 0,
            extent_next: 0,
            extent_left: 0,
            pages_allocated: 0,
        }
    }

    /// Number of co-scheduled programs.
    pub fn program_count(&self) -> usize {
        self.programs.len()
    }

    /// Pull the next free physical page from the free list.
    fn alloc_page(&mut self) -> u64 {
        self.pages_allocated += 1;
        match self.model {
            FreeListModel::Sequential => {
                let p = self.next_seq % self.phys_page_limit;
                self.next_seq += 1;
                p
            }
            FreeListModel::Fragmented {
                mean_extent_pages, ..
            } => {
                // Continue the current extent while it lasts and its
                // pages are free.
                while self.extent_left > 0 {
                    let p = self.extent_next % self.phys_page_limit;
                    self.extent_next += 1;
                    self.extent_left -= 1;
                    if self.used.insert(p) {
                        return p;
                    }
                }
                // Start a new extent at a random free location.
                loop {
                    let base = self.rng.gen_range(0..self.phys_page_limit);
                    if self.used.contains(&base) {
                        // Span nearly full: fall back to linear probe.
                        if self.used.len() as u64 >= self.phys_page_limit {
                            self.used.clear();
                        }
                        continue;
                    }
                    // Geometric extent length with the configured mean.
                    let q = 1.0 / mean_extent_pages;
                    let mut len = 1u64;
                    while !self.rng.gen_bool(q) && len < 512 {
                        len += 1;
                    }
                    self.used.insert(base);
                    self.extent_next = base + 1;
                    self.extent_left = len - 1;
                    return base;
                }
            }
        }
    }

    /// Translate a virtual address of `prog`, allocating on first touch.
    ///
    /// # Panics
    /// Panics if `prog` is out of range.
    pub fn translate(&mut self, prog: usize, vaddr: u64) -> Translation {
        let vpage = page_of(vaddr);
        let needs_page = !self.programs[prog].v2p.contains_key(&vpage);
        if needs_page {
            let ppage = self.alloc_page();
            let map = &mut self.programs[prog];
            map.v2p.insert(vpage, ppage);
            let leaf = map.next_leaf;
            map.v2leaf.insert(vpage, leaf);
            map.next_leaf += 1;
        }
        let map = &self.programs[prog];
        Translation {
            paddr: map.v2p[&vpage] * PAGE_BYTES + page_offset(vaddr),
            leaf_page: map.v2leaf[&vpage],
        }
    }

    /// Unmap one virtual page of `prog`, returning its physical page to
    /// the free list (the fragmented model can hand it out again; the
    /// sequential model's wrapping cursor needs no bookkeeping).
    /// Returns the physical page number, or `None` if the page was
    /// never touched. A later re-touch allocates a *fresh* physical
    /// page and a fresh mapper leaf-id — recycled per-enclave leaf-ids
    /// are the enclave manager's job, not the mapper's.
    pub fn unmap_page(&mut self, prog: usize, vaddr: u64) -> Option<u64> {
        let vpage = page_of(vaddr);
        let map = &mut self.programs[prog];
        let ppage = map.v2p.remove(&vpage)?;
        map.v2leaf.remove(&vpage);
        self.used.remove(&ppage);
        Some(ppage)
    }

    /// Release every mapping of `prog` at once (enclave teardown),
    /// resetting its map for the slot's next tenant. Returns how many
    /// pages went back to the free list. Without this (and
    /// [`Self::unmap_page`]), `v2p`/`v2leaf` grow without bound under
    /// churn: every session would leak its translations forever.
    pub fn release_program(&mut self, prog: usize) -> usize {
        let map = std::mem::take(&mut self.programs[prog]);
        let released = map.v2p.len();
        for ppage in map.v2p.into_values() {
            self.used.remove(&ppage);
        }
        released
    }

    /// Currently mapped pages across all programs. The enclave
    /// manager's invariant checks compare this against its own
    /// live-page count — the two are updated on disjoint code paths,
    /// so divergence means a leaked or double-freed page.
    pub fn live_pages(&self) -> usize {
        self.programs.iter().map(|p| p.v2p.len()).sum()
    }

    /// Per-program statistics.
    pub fn program(&self, prog: usize) -> &ProgramMap {
        &self.programs[prog]
    }

    /// Total physical pages allocated so far.
    pub fn pages_allocated(&self) -> u64 {
        self.pages_allocated
    }
}

/// Hand-written: the free-list model and physical span are checked
/// against this mapper's construction parameters and the program count
/// against its program slots; the RNG travels as its raw stream
/// position.
impl Persist for PageMapper {
    fn save(&self, w: &mut SnapWriter) {
        w.section("PMAP", 1);
        w.put(&self.model);
        w.put(&self.phys_page_limit);
        w.put(&self.rng.state());
        w.put(&self.programs);
        w.put(&self.used);
        w.put(&self.next_seq);
        w.put(&self.extent_next);
        w.put(&self.extent_left);
        w.put(&self.pages_allocated);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("PMAP", 1)?;
        let mut model = self.model;
        model.load(r, "free-list model")?;
        let phys_page_limit: u64 = r.get("phys page limit")?;
        if model != self.model || phys_page_limit != self.phys_page_limit {
            return Err(SnapError::Corrupt {
                what: "mapper config (snapshot from a different configuration)",
                at: r.pos(),
            });
        }
        self.rng = StdRng::from_state(r.get("mapper rng state")?);
        r.load_exact(
            &mut self.programs,
            "mapper program count (snapshot from a different configuration)",
        )?;
        self.used.load(r, "used page set")?;
        self.next_seq.load(r, "sequential cursor")?;
        self.extent_next.load(r, "extent next")?;
        self.extent_left.load(r, "extent left")?;
        self.pages_allocated.load(r, "pages allocated")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocates_in_order() {
        let mut m = PageMapper::sequential(2, 1 << 30);
        assert_eq!(m.translate(0, 0).paddr, 0);
        assert_eq!(m.translate(1, 0).paddr, PAGE_BYTES);
        assert_eq!(m.translate(0, PAGE_BYTES).paddr, 2 * PAGE_BYTES);
    }

    #[test]
    fn repeat_touch_is_stable() {
        for mut m in [
            PageMapper::sequential(1, 1 << 30),
            PageMapper::fragmented(1, 1 << 30, 8.0, 7),
        ] {
            let a = m.translate(0, 123 * PAGE_BYTES + 64);
            let b = m.translate(0, 123 * PAGE_BYTES + 128);
            assert_eq!(page_of(a.paddr), page_of(b.paddr));
            assert_eq!(a.leaf_page, b.leaf_page);
            assert_eq!(m.program(0).pages_touched(), 1);
        }
    }

    #[test]
    fn fragmented_pages_are_unique() {
        let mut m = PageMapper::fragmented(2, 1 << 34, 8.0, 3);
        let mut seen = HashSet::new();
        for i in 0..5000u64 {
            let t = m.translate((i % 2) as usize, (i / 2) * PAGE_BYTES);
            assert!(seen.insert(t.paddr), "page reused at {i}");
        }
    }

    #[test]
    fn fragmented_scatters_across_the_span() {
        // Consecutive allocations must NOT be physically adjacent on
        // average: this is what dilutes shared upper tree nodes.
        let span = 1u64 << 34; // 16 GB
        let mut m = PageMapper::fragmented(1, span, 8.0, 11);
        let pages: Vec<u64> = (0..2000u64)
            .map(|i| m.translate(0, i * PAGE_BYTES).paddr / PAGE_BYTES)
            .collect();
        let adjacent = pages.windows(2).filter(|w| w[1] == w[0] + 1).count();
        // Mean extent 8 => ~7/8 of consecutive allocations adjacent,
        // the rest jump far away.
        let frac = adjacent as f64 / (pages.len() - 1) as f64;
        assert!(frac > 0.7 && frac < 0.95, "adjacency fraction {frac}");
        // And the span coverage is broad.
        let max = *pages.iter().max().unwrap();
        assert!(max > span / PAGE_BYTES / 4, "allocations not scattered");
    }

    #[test]
    fn coscheduled_programs_split_extents() {
        // Interleaved first touches slice each extent across programs:
        // a physically-adjacent pair often belongs to different programs.
        let mut m = PageMapper::fragmented(4, 1 << 32, 8.0, 5);
        let mut owner: HashMap<u64, usize> = HashMap::new();
        for i in 0..4000u64 {
            let prog = (i % 4) as usize;
            let t = m.translate(prog, (i / 4) * PAGE_BYTES);
            owner.insert(t.paddr / PAGE_BYTES, prog);
        }
        let mut cross = 0;
        let mut total = 0;
        for (&p, &o) in &owner {
            if let Some(&o2) = owner.get(&(p + 1)) {
                total += 1;
                if o != o2 {
                    cross += 1;
                }
            }
        }
        assert!(total > 500);
        assert!(
            cross as f64 / total as f64 > 0.5,
            "extents not split: {cross}/{total}"
        );
    }

    #[test]
    fn leaf_ids_are_dense_per_program_regardless_of_placement() {
        let mut m = PageMapper::fragmented(2, 1 << 32, 8.0, 9);
        for (i, vp) in [500u64, 3, 99, 1_000_000].iter().enumerate() {
            let t = m.translate(1, vp * PAGE_BYTES);
            assert_eq!(t.leaf_page, i as u64);
        }
        assert_eq!(m.translate(0, 0).leaf_page, 0);
    }

    #[test]
    fn offsets_preserved_within_page() {
        let mut m = PageMapper::fragmented(1, 1 << 30, 8.0, 1);
        let t = m.translate(0, 5 * PAGE_BYTES + 320);
        assert_eq!(t.paddr % PAGE_BYTES, 320);
    }

    #[test]
    fn sequential_wraps_at_physical_limit() {
        let mut m = PageMapper::sequential(1, 4 * PAGE_BYTES);
        for i in 0..6u64 {
            m.translate(0, i * PAGE_BYTES);
        }
        assert_eq!(m.translate(0, 4 * PAGE_BYTES).paddr / PAGE_BYTES, 0);
        assert_eq!(m.translate(0, 5 * PAGE_BYTES).paddr / PAGE_BYTES, 1);
    }

    #[test]
    fn unmap_returns_page_to_the_free_list() {
        let mut m = PageMapper::fragmented(1, 8 * PAGE_BYTES, 4.0, 13);
        // Exhaust the tiny span.
        let pages: HashSet<u64> = (0..8u64)
            .map(|i| m.translate(0, i * PAGE_BYTES).paddr / PAGE_BYTES)
            .collect();
        assert_eq!(pages.len(), 8);
        assert_eq!(m.live_pages(), 8);
        let freed = m.unmap_page(0, 3 * PAGE_BYTES).expect("was mapped");
        assert_eq!(m.live_pages(), 7);
        assert!(m.unmap_page(0, 3 * PAGE_BYTES).is_none(), "double unmap");
        // The freed frame is allocatable again: the only free page in
        // the span must be the one just returned.
        let t = m.translate(0, 100 * PAGE_BYTES);
        assert_eq!(t.paddr / PAGE_BYTES, freed);
    }

    #[test]
    fn release_program_resets_the_slot_for_the_next_tenant() {
        let mut m = PageMapper::fragmented(2, 1 << 24, 4.0, 21);
        for i in 0..50u64 {
            m.translate(0, i * PAGE_BYTES);
            m.translate(1, i * PAGE_BYTES);
        }
        assert_eq!(m.release_program(0), 50);
        assert_eq!(m.live_pages(), 50, "program 1 untouched");
        assert_eq!(m.program(0).pages_touched(), 0);
        // Long-churn leak fix: cycling sessions through a slot keeps
        // the translation tables bounded by the live working set.
        for round in 0..20u64 {
            for i in 0..50u64 {
                m.translate(0, (round * 1000 + i) * PAGE_BYTES);
            }
            assert_eq!(m.release_program(0), 50);
        }
        assert_eq!(m.program(0).pages_touched(), 0);
        assert_eq!(m.live_pages(), 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = PageMapper::fragmented(2, 1 << 32, 8.0, 42);
            (0..100u64)
                .map(|i| m.translate((i % 2) as usize, i * PAGE_BYTES).paddr)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
