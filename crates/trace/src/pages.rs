//! Physical page allocation.
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
//! the OS put the page. Its users assign those ids (the enclave
//! manager under churn, the simulator per core for static traces);
//! here [`FrameAllocator`] is the free list, and [`PageMapper`]
//! composes static traces with it.

use std::collections::{HashMap, HashSet};

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::{page_of, page_offset, PAGE_BYTES};

/// How the simulated OS free list hands out physical pages.
#[derive(Debug, Clone, Copy, PartialEq, Persist)]
pub enum FreeListModel {
    /// Pristine machine: one giant extent, pages handed out in order.
    Sequential,
    /// Long-running machine: extents of geometrically-distributed
    /// length (given mean) scattered uniformly over the span.
    Fragmented { mean_extent_pages: f64, seed: u64 },
}

/// The simulated OS free list: hands out physical frames under a
/// [`FreeListModel`] and takes freed ones back.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
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
}

impl FrameAllocator {
    /// A free list over `phys_bytes` of allocatable physical memory
    /// under the chosen model.
    ///
    /// # Panics
    /// Panics if a fragmented model's mean extent is below one page.
    pub fn new(phys_bytes: u64, model: FreeListModel) -> Self {
        let seed = match model {
            FreeListModel::Sequential => 0,
            FreeListModel::Fragmented {
                mean_extent_pages,
                seed,
            } => {
                assert!(mean_extent_pages >= 1.0);
                seed
            }
        };
        FrameAllocator {
            phys_page_limit: (phys_bytes / PAGE_BYTES).max(1),
            model,
            rng: StdRng::seed_from_u64(seed),
            used: HashSet::new(),
            next_seq: 0,
            extent_next: 0,
            extent_left: 0,
        }
    }

    /// Pull the next free physical page from the free list.
    pub fn alloc(&mut self) -> u64 {
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

    /// Return a frame to the free list (the fragmented model can hand
    /// it out again; the sequential model's wrapping cursor needs no
    /// bookkeeping).
    pub fn free(&mut self, ppage: u64) {
        self.used.remove(&ppage);
    }
}

/// Hand-written: the free-list model and physical span are checked
/// against this allocator's construction parameters; the RNG travels
/// as its raw stream position.
impl Persist for FrameAllocator {
    fn save(&self, w: &mut SnapWriter) {
        w.section("PMAP", 2);
        w.put(&self.model);
        w.put(&self.phys_page_limit);
        w.put(&self.rng.state());
        w.put(&self.used);
        w.put(&self.next_seq);
        w.put(&self.extent_next);
        w.put(&self.extent_left);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("PMAP", 2)?;
        let mut model = self.model;
        model.load(r, "free-list model")?;
        let phys_page_limit: u64 = r.get("phys page limit")?;
        if model != self.model || phys_page_limit != self.phys_page_limit {
            return Err(SnapError::Corrupt {
                what: "frame allocator config (snapshot from a different configuration)",
                at: r.pos(),
            });
        }
        self.rng = StdRng::from_state(r.get("frame allocator rng state")?);
        self.used.load(r, "used page set")?;
        self.next_seq.load(r, "sequential cursor")?;
        self.extent_next.load(r, "extent next")?;
        self.extent_left.load(r, "extent left")
    }
}

/// First-touch page mapping for a set of co-scheduled programs sharing
/// one free list: static trace composition.
#[derive(Debug, Clone)]
pub struct PageMapper {
    /// Per program: virtual page number -> physical page number.
    programs: Vec<HashMap<u64, u64>>,
    frames: FrameAllocator,
}

impl PageMapper {
    /// Build for `programs` programs over `phys_bytes` of allocatable
    /// physical memory under the chosen free-list model.
    pub fn with_model(programs: usize, phys_bytes: u64, model: FreeListModel) -> Self {
        PageMapper {
            programs: vec![HashMap::new(); programs],
            frames: FrameAllocator::new(phys_bytes, model),
        }
    }

    /// Translate a virtual address of `prog` to a physical one,
    /// allocating its frame on first touch.
    ///
    /// # Panics
    /// Panics if `prog` is out of range.
    pub fn translate(&mut self, prog: usize, vaddr: u64) -> u64 {
        let frames = &mut self.frames;
        let ppage = *self.programs[prog]
            .entry(page_of(vaddr))
            .or_insert_with(|| frames.alloc());
        ppage * PAGE_BYTES + page_offset(vaddr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequential(programs: usize, phys_bytes: u64) -> PageMapper {
        PageMapper::with_model(programs, phys_bytes, FreeListModel::Sequential)
    }

    fn fragmented(
        programs: usize,
        phys_bytes: u64,
        mean_extent_pages: f64,
        seed: u64,
    ) -> PageMapper {
        let model = FreeListModel::Fragmented {
            mean_extent_pages,
            seed,
        };
        PageMapper::with_model(programs, phys_bytes, model)
    }

    #[test]
    fn sequential_allocates_in_order() {
        let mut m = sequential(2, 1 << 30);
        assert_eq!(m.translate(0, 0), 0);
        assert_eq!(m.translate(1, 0), PAGE_BYTES);
        assert_eq!(m.translate(0, PAGE_BYTES), 2 * PAGE_BYTES);
    }

    #[test]
    fn repeat_touch_is_stable() {
        for mut m in [sequential(1, 1 << 30), fragmented(1, 1 << 30, 8.0, 7)] {
            let a = m.translate(0, 123 * PAGE_BYTES + 64);
            let b = m.translate(0, 123 * PAGE_BYTES + 128);
            assert_eq!(a + 64, b);
        }
    }

    #[test]
    fn fragmented_pages_are_unique() {
        let mut m = fragmented(2, 1 << 34, 8.0, 3);
        let mut seen = HashSet::new();
        for i in 0..5000u64 {
            let t = m.translate((i % 2) as usize, (i / 2) * PAGE_BYTES);
            assert!(seen.insert(t), "page reused at {i}");
        }
    }

    #[test]
    fn fragmented_scatters_across_the_span() {
        // Consecutive allocations must NOT be physically adjacent on
        // average: this is what dilutes shared upper tree nodes.
        let span = 1u64 << 34; // 16 GB
        let mut m = fragmented(1, span, 8.0, 11);
        let pages: Vec<u64> = (0..2000u64)
            .map(|i| m.translate(0, i * PAGE_BYTES) / PAGE_BYTES)
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
        let mut m = fragmented(4, 1 << 32, 8.0, 5);
        let mut owner: HashMap<u64, usize> = HashMap::new();
        for i in 0..4000u64 {
            let prog = (i % 4) as usize;
            let t = m.translate(prog, (i / 4) * PAGE_BYTES);
            owner.insert(t / PAGE_BYTES, prog);
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
    fn offsets_preserved_within_page() {
        let mut m = fragmented(1, 1 << 30, 8.0, 1);
        let t = m.translate(0, 5 * PAGE_BYTES + 320);
        assert_eq!(t % PAGE_BYTES, 320);
    }

    #[test]
    fn sequential_wraps_at_physical_limit() {
        let mut m = sequential(1, 4 * PAGE_BYTES);
        for i in 0..6u64 {
            m.translate(0, i * PAGE_BYTES);
        }
        assert_eq!(m.translate(0, 4 * PAGE_BYTES) / PAGE_BYTES, 0);
        assert_eq!(m.translate(0, 5 * PAGE_BYTES) / PAGE_BYTES, 1);
    }

    #[test]
    fn freed_frames_return_to_the_free_list() {
        let mut f = FrameAllocator::new(
            8 * PAGE_BYTES,
            FreeListModel::Fragmented {
                mean_extent_pages: 4.0,
                seed: 13,
            },
        );
        // Exhaust the tiny span.
        let pages: HashSet<u64> = (0..8).map(|_| f.alloc()).collect();
        assert_eq!(pages.len(), 8);
        f.free(3);
        // The freed frame is allocatable again: the only free page in
        // the span must be the one just returned.
        assert_eq!(f.alloc(), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut m = fragmented(2, 1 << 32, 8.0, 42);
            (0..100u64)
                .map(|i| m.translate((i % 2) as usize, i * PAGE_BYTES))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
