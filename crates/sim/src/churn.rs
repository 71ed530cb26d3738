//! Driving multi-tenant enclave churn through the full system.
//!
//! [`ChurnDriver`] sits between the cores and the security engine: it
//! admits sessions from a [`ChurnWorkload`] schedule into slots as
//! their Poisson arrival times pass, routes their virtual accesses to
//! the enclave manager (pages can be freed and re-touched, so
//! translations cannot be precomputed), fires mid-session page frees,
//! and tears enclaves down when their traces drain. The manager owns
//! the page tables and the lifecycle counts; the driver owns only the
//! schedule and the OS free list the manager's first touches draw
//! frames from. Every lifecycle transition's metadata traffic — tree
//! init writes, migration reads, counter resets, parity rebuilds,
//! teardown zeroization — is returned to the system and contends for
//! DRAM bandwidth like any other metadata.

use std::collections::VecDeque;

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

use itesp_core::{MetaAccess, SecurityEngine};
use itesp_enclave::{EnclaveManager, LifecycleStats};
use itesp_trace::{
    ChurnSession, ChurnWorkload, FrameAllocator, FreeListModel, PageFree, PhysRecord, PAGE_BYTES,
};

/// Mixed into the run seed for the churn free list, so page placement
/// and session streams draw from independent randomness.
const FRAMES_SEED_SALT: u64 = 0x9A6E_5EED;

/// Mean extent length of the churn free list (matches the static
/// experiments' long-running-kernel model).
const FRAMES_MEAN_EXTENT: f64 = 4.0;

/// The churn state machine the system consults every cycle.
pub struct ChurnDriver {
    /// Sessions not yet admitted, per slot.
    pub(crate) queues: Vec<VecDeque<ChurnSession>>,
    /// The running session's remaining free events, per slot.
    pub(crate) frees: Vec<VecDeque<PageFree>>,
    pub(crate) live: Vec<bool>,
    /// Earliest cycle the slot's next session may start (`u64::MAX`
    /// once the queue is empty).
    pub(crate) ready_at: Vec<u64>,
    frames: FrameAllocator,
    manager: EnclaveManager,
}

impl ChurnDriver {
    /// Build a driver for `workload` over `phys_bytes` of allocatable
    /// memory. `seed` keys the free-list placement and the
    /// per-enclave MAC keys. Freed leaves rebuild their parity (the
    /// manager's default policy).
    pub fn new(workload: &ChurnWorkload, phys_bytes: u64, seed: u64) -> Self {
        let slots = workload.slots.len();
        assert!(slots > 0, "churn workload needs at least one slot");
        let queues: Vec<VecDeque<ChurnSession>> = workload
            .slots
            .iter()
            .map(|q| q.iter().cloned().collect())
            .collect();
        let ready_at = queues
            .iter()
            .map(|q| q.front().map_or(u64::MAX, |s| s.arrival_gap))
            .collect();
        let manager = EnclaveManager::new(slots, seed);
        ChurnDriver {
            frees: vec![VecDeque::new(); slots],
            live: vec![false; slots],
            ready_at,
            queues,
            frames: FrameAllocator::new(
                phys_bytes,
                FreeListModel::Fragmented {
                    mean_extent_pages: FRAMES_MEAN_EXTENT,
                    seed: seed ^ FRAMES_SEED_SALT,
                },
            ),
            manager,
        }
    }

    /// All sessions served and none running.
    pub fn done(&self) -> bool {
        self.live.iter().all(|l| !l) && self.queues.iter().all(VecDeque::is_empty)
    }

    /// Earliest pending arrival across slots waiting for one. Through
    /// `System::driver_wake` it bounds the bulk-advance window, so an
    /// idle gap between sessions ends exactly at the admission.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        self.live
            .iter()
            .zip(&self.ready_at)
            .filter(|(live, _)| !**live)
            .map(|(_, &r)| r)
            .filter(|&r| r != u64::MAX)
            .min()
    }

    /// Admit the slot's next session: create the enclave (tree install
    /// and cache carve), arm its free events, and hand back the
    /// physical trace for the core — virtual addresses, translated
    /// lazily at fetch via [`Self::on_access`].
    pub(crate) fn create(
        &mut self,
        slot: usize,
        cycle: u64,
        engine: &mut SecurityEngine,
    ) -> Option<(Vec<PhysRecord>, Vec<MetaAccess>)> {
        let session = self.queues[slot].pop_front()?;
        let (_, traffic) = self.manager.create(engine, slot, session.footprint_pages);
        self.frees[slot] = session.frees.into();
        self.live[slot] = true;
        // The next tenant's arrival clock starts at this admission.
        self.ready_at[slot] = match self.queues[slot].front() {
            Some(next) => cycle.saturating_add(next.arrival_gap),
            None => u64::MAX,
        };
        let trace = session
            .records
            .iter()
            .map(|r| PhysRecord {
                gap: r.gap,
                op: r.op,
                // Virtual: the manager translates at fetch time.
                paddr: r.vaddr,
            })
            .collect();
        Some((trace, traffic))
    }

    /// One access of a running session, paying first-touch costs
    /// (frame, leaf grant, tree growth) as they arise. Returns the
    /// physical address, the enclave-domain block index, and the
    /// lifecycle traffic to enqueue.
    pub(crate) fn on_access(
        &mut self,
        slot: usize,
        vaddr: u64,
        is_write: bool,
        engine: &mut SecurityEngine,
    ) -> (u64, u64, Vec<MetaAccess>) {
        let frames = &mut self.frames;
        self.manager
            .access(engine, slot, vaddr, is_write, || frames.alloc())
    }

    /// Fire one page-free event: reset the leaf's counters (plus
    /// parity rebuild-or-break) before recycling, and return the frame
    /// to the free list.
    pub(crate) fn free_page(
        &mut self,
        slot: usize,
        vaddr: u64,
        engine: &mut SecurityEngine,
    ) -> Vec<MetaAccess> {
        let Some((ppage, traffic)) = self.manager.free_page(engine, slot, vaddr / PAGE_BYTES)
        else {
            return Vec::new(); // page never materialized
        };
        self.frames.free(ppage);
        traffic
    }

    /// Tear the slot's enclave down after its trace drained: zeroize
    /// its metadata, release its frames, repartition the survivors.
    pub(crate) fn session_end(
        &mut self,
        slot: usize,
        engine: &mut SecurityEngine,
    ) -> Vec<MetaAccess> {
        self.frees[slot].clear();
        let (freed, traffic) = self.manager.destroy(engine, slot);
        for ppage in freed {
            self.frames.free(ppage);
        }
        self.live[slot] = false;
        traffic
    }

    /// The run's lifecycle statistics.
    pub fn stats(&self) -> LifecycleStats {
        self.manager.stats()
    }
}

/// Hand-written: pending session queues are stored as *remaining
/// counts* — the schedule regenerates deterministically from the
/// workload the driver was built with, so `load` pops the consumed
/// sessions off the regenerated queues — and every per-slot list is
/// checked against the constructed slot count. Mid-session free
/// events are stored verbatim (they are partially consumed).
impl Persist for ChurnDriver {
    fn save(&self, w: &mut SnapWriter) {
        w.section("CHRN", 2);
        w.put(&self.queues.iter().map(VecDeque::len).collect::<Vec<_>>());
        w.put(&self.frees);
        w.put(&self.live);
        w.put(&self.ready_at);
        w.put(&self.frames);
        w.put(&self.manager);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("CHRN", 2)?;
        let at = r.pos();
        let remaining: Vec<usize> = r.get("remaining sessions")?;
        if remaining.len() != self.queues.len() {
            return Err(SnapError::Corrupt {
                what: "churn slot count (snapshot from a different workload)",
                at,
            });
        }
        for (q, left) in self.queues.iter_mut().zip(remaining) {
            if left > q.len() {
                return Err(SnapError::Corrupt {
                    what: "remaining sessions exceed the workload schedule",
                    at,
                });
            }
            q.drain(..q.len() - left);
        }
        r.load_exact(&mut self.frees, "churn free-queue count")?;
        r.load_exact(&mut self.live, "churn live-flag count")?;
        r.load_exact(&mut self.ready_at, "churn ready_at count")?;
        self.frames.load(r, "frame allocator")?;
        self.manager.load(r, "enclave manager")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_workload_churn, ExperimentParams};
    use crate::stats::RunResult;
    use itesp_core::Scheme;
    use itesp_trace::{benchmark, ChurnConfig};

    fn workload(seed: u64) -> ChurnWorkload {
        ChurnWorkload::generate(
            benchmark("mcf").unwrap(),
            &ChurnConfig {
                slots: 4,
                sessions_per_slot: 2,
                ops_per_session: 400,
                mean_arrival_gap: 5_000.0,
                footprint_pages: 16,
                free_fraction: 0.4,
                seed,
            },
        )
    }

    fn run(scheme: Scheme, seed: u64) -> RunResult {
        let p = ExperimentParams {
            seed,
            ..ExperimentParams::paper_4core(scheme, 400)
        };
        run_workload_churn(&workload(seed), p)
    }

    #[test]
    fn churn_serves_every_session_to_completion() {
        let r = run(Scheme::Itesp, 11);
        assert_eq!(r.churn.created, 8, "4 slots x 2 sessions");
        assert_eq!(r.churn.destroyed, 8);
        assert_eq!(r.engine.data_accesses(), 8 * 400);
        assert!(r.churn.pages_freed > 0);
        assert!(r.churn.peak_live_pages > 0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn lifecycle_transitions_cost_metadata_traffic() {
        let r = run(Scheme::Itesp, 12);
        // 16-page footprints over 4-page initial trees: growth and
        // teardown both fire.
        assert!(r.churn.grows > 0, "first touch must outgrow the tree");
        assert!(r.churn.init_writes > 0, "create pays tree init");
        assert!(r.churn.migration_reads > 0, "grow pays migration");
        assert!(r.churn.reset_writes > 0, "free pays counter resets");
        assert!(r.churn.zeroize_writes > 0, "destroy pays zeroization");
    }

    #[test]
    fn freed_pages_recycle_leaf_ids() {
        // Heavy freeing over a small footprint: later records re-touch
        // freed pages, exercising the recycle path end to end.
        let w = ChurnWorkload::generate(
            benchmark("mcf").unwrap(),
            &ChurnConfig {
                slots: 4,
                sessions_per_slot: 1,
                ops_per_session: 1500,
                mean_arrival_gap: 1_000.0,
                footprint_pages: 8,
                free_fraction: 0.5,
                seed: 21,
            },
        );
        let p = ExperimentParams {
            seed: 21,
            ..ExperimentParams::paper_4core(Scheme::Itesp, 1500)
        };
        let r = run_workload_churn(&w, p);
        assert!(
            r.churn.leaves_recycled > 0,
            "freed leaves must be handed out again: {:?}",
            r.churn
        );
    }

    #[test]
    fn unsecure_churn_is_metadata_free() {
        let r = run(Scheme::Unsecure, 13);
        assert_eq!(r.churn.created, 8);
        assert_eq!(r.churn.lifecycle_accesses(), 0);
        assert_eq!(r.engine.meta_accesses(), 0);
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let a = run(Scheme::Itesp, 14);
        let b = run(Scheme::Itesp, 14);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.churn, b.churn);
        assert_eq!(a.dram.reads, b.dram.reads);
        assert_eq!(a.dram.writes, b.dram.writes);
    }

    #[test]
    fn shared_scheme_churn_completes() {
        let r = run(Scheme::Synergy, 15);
        assert_eq!(r.churn.created, 8);
        // No private trees to install/zeroize, but frees still reset
        // the shared tree's leaves over the freed frames.
        assert_eq!(r.churn.init_writes, 0);
        assert_eq!(r.churn.zeroize_writes, 0);
        assert!(r.churn.reset_writes > 0);
    }
}
