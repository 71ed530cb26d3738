//! Multi-tenant churn workloads: enclave sessions that arrive, touch a
//! bounded footprint, free pages mid-life, and depart.
//!
//! The static experiments co-schedule one immortal program per core.
//! Server TEEs instead see a renewal process per slot: an enclave is
//! created, runs for a while over its own working set, returns some
//! pages early, and exits — at which point the slot waits out a
//! Poisson think time and admits the next tenant. [`ChurnWorkload`]
//! generates exactly that, reusing the benchmark-derived access model
//! of [`crate::workload`] for the intra-session streams, so the only
//! new degrees of freedom are the lifecycle ones: arrival rate,
//! footprint, and mid-session page frees.
//!
//! Everything is deterministic given [`ChurnConfig::seed`]; benches
//! pass a seed resolved from `ITESP_TEST_SEED` so failures replay.

use itesp_snap::Persist;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::{page_of, TraceRecord, PAGE_BYTES};
use crate::suites::Benchmark;
use crate::workload::{WorkloadGen, WorkloadParams};

/// Parameters of one churn generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Enclave slots (hardware contexts / cores).
    pub slots: usize,
    /// Sessions each slot serves before the run ends.
    pub sessions_per_slot: usize,
    /// Memory operations per session.
    pub ops_per_session: usize,
    /// Mean CPU-cycle think time between a slot's consecutive session
    /// arrivals (exponential; the next session also waits for the
    /// previous one to finish).
    pub mean_arrival_gap: f64,
    /// Virtual footprint of each session, pages. The session's whole
    /// access stream falls inside this many pages.
    pub footprint_pages: u64,
    /// Fraction of a session's touched pages that are freed before the
    /// session exits (each may be re-touched later, which is what
    /// exercises leaf-id recycling).
    pub free_fraction: f64,
    /// Master seed; every stream below derives from it.
    pub seed: u64,
}

/// A page-free event inside a session: once the record at index
/// `after_record` has been issued, the page holding `vaddr` is
/// returned to the enclave's free list. Later records may touch the
/// same virtual page again — that re-touch is a fresh first-touch
/// (new physical frame, recycled leaf-id).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub struct PageFree {
    pub after_record: usize,
    pub vaddr: u64,
}

/// One enclave's life: arrival delay, its access stream, and its
/// mid-life page frees (sorted by `after_record`).
#[derive(Debug, Clone)]
pub struct ChurnSession {
    /// CPU cycles after the *previous* session's arrival on this slot
    /// before this one may start (renewal inter-arrival time).
    pub arrival_gap: u64,
    pub footprint_pages: u64,
    pub records: Vec<TraceRecord>,
    pub frees: Vec<PageFree>,
}

/// A full churn schedule: per slot, the queue of sessions it serves.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    pub name: String,
    pub slots: Vec<Vec<ChurnSession>>,
}

impl ChurnWorkload {
    /// Generate a churn schedule from a benchmark's access model.
    ///
    /// # Panics
    /// Panics if any count is zero or `free_fraction` is outside
    /// `[0, 1)`.
    pub fn generate(bench: &Benchmark, cfg: &ChurnConfig) -> Self {
        assert!(cfg.slots > 0 && cfg.sessions_per_slot > 0 && cfg.ops_per_session > 0);
        assert!(cfg.footprint_pages > 0, "footprint must be at least a page");
        assert!(
            (0.0..1.0).contains(&cfg.free_fraction),
            "free_fraction must be in [0, 1)"
        );
        let mut params = WorkloadParams::from_benchmark(bench);
        params.working_set = cfg.footprint_pages * PAGE_BYTES;
        let slots = (0..cfg.slots)
            .map(|slot| {
                // Independent arrival process per slot.
                let mut arrivals =
                    StdRng::seed_from_u64(cfg.seed ^ 0xA881_1E5Du64.wrapping_add(slot as u64));
                (0..cfg.sessions_per_slot)
                    .map(|k| {
                        let stream_seed = mix(cfg.seed, slot as u64, k as u64);
                        let records: Vec<TraceRecord> = WorkloadGen::new(params, stream_seed)
                            .take(cfg.ops_per_session)
                            .collect();
                        let frees = pick_frees(&records, cfg.free_fraction, stream_seed ^ 0xF4EE);
                        let u: f64 = arrivals.gen_range(f64::EPSILON..1.0);
                        let arrival_gap = (-(u.ln()) * cfg.mean_arrival_gap) as u64;
                        ChurnSession {
                            arrival_gap,
                            footprint_pages: cfg.footprint_pages,
                            records,
                            frees,
                        }
                    })
                    .collect()
            })
            .collect();
        ChurnWorkload {
            name: bench.name.to_owned(),
            slots,
        }
    }

    /// Total sessions across all slots.
    pub fn session_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Total memory operations across all sessions.
    pub fn total_ops(&self) -> usize {
        self.slots.iter().flatten().map(|s| s.records.len()).sum()
    }

    /// Flatten the per-slot session queues into one global arrival
    /// order. Each session's arrival time is the prefix sum of its
    /// slot's renewal gaps; ties break by `(slot, index)`, so the
    /// order is a pure function of the workload. A cluster scheduler
    /// admits tenants in exactly this order and numbers them by their
    /// position, which is what makes per-tenant identities — and the
    /// MAC keys derived from them — placement-independent.
    pub fn arrival_order(&self) -> Vec<FlatArrival> {
        let mut flat = Vec::with_capacity(self.session_count());
        for (slot, sessions) in self.slots.iter().enumerate() {
            let mut at = 0u64;
            for (index, s) in sessions.iter().enumerate() {
                at = at.saturating_add(s.arrival_gap);
                flat.push(FlatArrival {
                    arrival: at,
                    slot,
                    index,
                });
            }
        }
        flat.sort_by_key(|a| (a.arrival, a.slot, a.index));
        flat
    }

    /// The session a [`FlatArrival`] points at.
    pub fn session(&self, a: &FlatArrival) -> &ChurnSession {
        &self.slots[a.slot][a.index]
    }
}

/// One entry of [`ChurnWorkload::arrival_order`]: which session
/// arrives when, in the workload's global admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatArrival {
    /// Cumulative arrival time (CPU cycles from the run's start).
    pub arrival: u64,
    /// Slot whose queue the session came from.
    pub slot: usize,
    /// Position within that slot's queue.
    pub index: usize,
}

/// Deterministic per-(slot, session) seed derivation.
fn mix(seed: u64, slot: u64, session: u64) -> u64 {
    let mut x = seed ^ (slot << 32) ^ (session.wrapping_add(1));
    // splitmix64 finalizer: decorrelates adjacent (slot, session) pairs.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Choose which touched pages a session frees early, and when. Each
/// chosen page is freed at a record index strictly after its first
/// touch, so the driver always sees the allocation before the free;
/// records after that index may re-touch the page.
fn pick_frees(records: &[TraceRecord], fraction: f64, seed: u64) -> Vec<PageFree> {
    if fraction <= 0.0 || records.len() < 2 {
        return Vec::new();
    }
    // First-touch record index per page, in touch order.
    let mut first_touch: Vec<(u64, usize)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (i, r) in records.iter().enumerate() {
        let page = page_of(r.vaddr);
        if seen.insert(page) {
            first_touch.push((page, i));
        }
    }
    let n_free = ((first_touch.len() as f64) * fraction) as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frees: Vec<PageFree> = Vec::with_capacity(n_free);
    // Deterministic partial Fisher-Yates over the touch-ordered list.
    let mut pool = first_touch;
    for _ in 0..n_free {
        let pick = rng.gen_range(0..pool.len());
        let (page, first) = pool.swap_remove(pick);
        if first + 1 >= records.len() {
            continue; // touched by the final record: nothing after it
        }
        let after_record = rng.gen_range(first..records.len() - 1);
        frees.push(PageFree {
            after_record,
            vaddr: page * PAGE_BYTES,
        });
    }
    frees.sort_unstable_by_key(|f| (f.after_record, f.vaddr));
    frees
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::benchmark;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            slots: 4,
            sessions_per_slot: 3,
            ops_per_session: 2000,
            mean_arrival_gap: 10_000.0,
            footprint_pages: 16,
            free_fraction: 0.3,
            seed: 0xC0FFEE,
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let b = benchmark("mcf").unwrap();
        let (a, c) = (
            ChurnWorkload::generate(b, &cfg()),
            ChurnWorkload::generate(b, &cfg()),
        );
        for (sa, sc) in a.slots.iter().flatten().zip(c.slots.iter().flatten()) {
            assert_eq!(sa.records, sc.records);
            assert_eq!(sa.frees, sc.frees);
            assert_eq!(sa.arrival_gap, sc.arrival_gap);
        }
        let mut other = cfg();
        other.seed ^= 1;
        let d = ChurnWorkload::generate(b, &other);
        assert_ne!(
            a.slots[0][0].records, d.slots[0][0].records,
            "different seeds must differ"
        );
    }

    #[test]
    fn sessions_stay_inside_their_footprint() {
        let b = benchmark("mcf").unwrap();
        let w = ChurnWorkload::generate(b, &cfg());
        assert_eq!(w.session_count(), 12);
        let bound = 16 * PAGE_BYTES;
        for s in w.slots.iter().flatten() {
            assert_eq!(s.records.len(), 2000);
            assert!(s.records.iter().all(|r| r.vaddr < bound));
        }
    }

    #[test]
    fn frees_follow_first_touch_and_are_sorted() {
        let b = benchmark("mcf").unwrap();
        let w = ChurnWorkload::generate(b, &cfg());
        let mut total_frees = 0;
        for s in w.slots.iter().flatten() {
            let mut first = std::collections::HashMap::new();
            for (i, r) in s.records.iter().enumerate() {
                first.entry(page_of(r.vaddr)).or_insert(i);
            }
            for f in &s.frees {
                let ft = first[&page_of(f.vaddr)];
                assert!(
                    f.after_record >= ft,
                    "free scheduled before first touch ({} < {ft})",
                    f.after_record
                );
                assert!(f.after_record < s.records.len());
            }
            assert!(s
                .frees
                .windows(2)
                .all(|w| w[0].after_record <= w[1].after_record));
            // No page is freed twice within one session.
            let pages: std::collections::HashSet<u64> =
                s.frees.iter().map(|f| page_of(f.vaddr)).collect();
            assert_eq!(pages.len(), s.frees.len());
            total_frees += s.frees.len();
        }
        assert!(total_frees > 0, "free_fraction 0.3 must schedule frees");
    }

    #[test]
    fn distinct_sessions_get_distinct_streams() {
        let b = benchmark("mcf").unwrap();
        let w = ChurnWorkload::generate(b, &cfg());
        assert_ne!(w.slots[0][0].records, w.slots[0][1].records);
        assert_ne!(w.slots[0][0].records, w.slots[1][0].records);
    }

    #[test]
    fn arrival_order_is_total_and_deterministic() {
        let b = benchmark("mcf").unwrap();
        let w = ChurnWorkload::generate(b, &cfg());
        let order = w.arrival_order();
        assert_eq!(order.len(), w.session_count());
        assert!(
            order
                .windows(2)
                .all(|p| (p[0].arrival, p[0].slot, p[0].index)
                    < (p[1].arrival, p[1].slot, p[1].index))
        );
        // Every session appears exactly once, and later sessions of a
        // slot never jump ahead of earlier ones (prefix-sum arrivals).
        let mut seen = std::collections::HashSet::new();
        for a in &order {
            assert!(seen.insert((a.slot, a.index)));
            assert_eq!(w.session(a).records.len(), 2000);
        }
        for s in 0..4 {
            let positions: Vec<usize> = order
                .iter()
                .enumerate()
                .filter(|(_, a)| a.slot == s)
                .map(|(i, _)| i)
                .collect();
            let indices: Vec<usize> = positions.iter().map(|&i| order[i].index).collect();
            assert!(indices.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(order, w.arrival_order());
    }

    #[test]
    fn zero_free_fraction_schedules_none() {
        let b = benchmark("mcf").unwrap();
        let mut c = cfg();
        c.free_fraction = 0.0;
        let w = ChurnWorkload::generate(b, &c);
        assert!(w.slots.iter().flatten().all(|s| s.frees.is_empty()));
    }
}
