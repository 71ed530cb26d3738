//! Set-associative metadata caches.
//!
//! The paper's systems keep security metadata (counters, tree nodes,
//! MACs, parities) in small dedicated on-chip caches. [`MetaCache`] is a
//! write-back, write-allocate, LRU, set-associative cache of 64-byte
//! metadata blocks. It also tracks the Figure 2 statistic: how many hits
//! each block receives while resident ("metadata block utilization").
//!
//! [`PartitionedCache`] wraps per-enclave instances for the isolated
//! designs: the enclave-id selects a partition, so no two enclaves can
//! interact through cache state (the leakage path of Section III-B).

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use serde::Serialize;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    pub hit: bool,
    /// Block address of a dirty victim that must be written back, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy, Default, Persist)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
    hits_since_fill: u64,
}

/// Aggregate statistics for one cache (or one partition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Persist)]
pub struct CacheStats {
    pub accesses: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
    /// Sum over evicted blocks of hits received while resident.
    pub evicted_block_hits: u64,
    /// Number of blocks evicted (denominator for utilization).
    pub evicted_blocks: u64,
}

impl CacheStats {
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Figure 2's metric: mean hits per metadata block while cached.
    pub fn hits_per_block(&self) -> f64 {
        if self.evicted_blocks == 0 {
            0.0
        } else {
            self.evicted_block_hits as f64 / self.evicted_blocks as f64
        }
    }

    pub fn merge(&mut self, o: &CacheStats) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses += o.misses;
        self.writebacks += o.writebacks;
        self.evicted_block_hits += o.evicted_block_hits;
        self.evicted_blocks += o.evicted_blocks;
    }
}

/// Largest capacity no greater than `budget_bytes` that [`MetaCache`]
/// accepts at `ways` associativity: a power-of-two number of sets of
/// `ways * 64` bytes each, never less than one set. Cache repartitioning
/// sizes every partition through this, so redistribution is a pure
/// function of the live-partition set.
pub fn largest_valid_capacity(budget_bytes: usize, ways: usize) -> usize {
    assert!(ways > 0, "associativity must be positive");
    let set_bytes = ways * 64;
    let sets = (budget_bytes / set_bytes).max(1);
    // Round down to a power of two.
    let sets = 1usize << (usize::BITS - 1 - sets.leading_zeros());
    sets * set_bytes
}

/// A write-back, LRU, set-associative cache of 64-byte blocks.
#[derive(Debug, Clone)]
pub struct MetaCache {
    lines: Vec<Line>,
    sets: usize,
    ways: usize,
    tick: u64,
    stats: CacheStats,
}

impl MetaCache {
    /// Build a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// # Panics
    /// Panics if the capacity is not a positive multiple of
    /// `ways * 64` or the resulting set count is not a power of two.
    pub fn new(capacity_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let blocks = capacity_bytes / 64;
        assert!(
            blocks >= ways && blocks.is_multiple_of(ways),
            "capacity {capacity_bytes} incompatible with {ways} ways"
        );
        let sets = blocks / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        MetaCache {
            lines: vec![Line::default(); blocks],
            sets,
            ways,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    pub fn capacity_bytes(&self) -> usize {
        self.lines.len() * 64
    }

    /// Access the metadata block containing byte address `addr`;
    /// `make_dirty` marks the line modified (a metadata update).
    /// Misses allocate; a dirty victim's address is returned for
    /// writeback.
    pub fn access(&mut self, addr: u64, make_dirty: bool) -> CacheOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let block = addr >> 6;
        let set = (block as usize) & (self.sets - 1);
        let base = set * self.ways;
        let set_lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = set_lines.iter_mut().find(|l| l.valid && l.tag == block) {
            line.last_use = self.tick;
            line.hits_since_fill += 1;
            line.dirty |= make_dirty;
            self.stats.hits += 1;
            return CacheOutcome {
                hit: true,
                writeback: None,
            };
        }

        self.stats.misses += 1;
        // Victim: an invalid way, else LRU.
        let victim = set_lines.iter().position(|l| !l.valid).unwrap_or_else(|| {
            set_lines
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.last_use)
                .map(|(i, _)| i)
                .expect("nonempty set")
        });
        let v = &mut set_lines[victim];
        let mut writeback = None;
        if v.valid {
            self.stats.evicted_blocks += 1;
            self.stats.evicted_block_hits += v.hits_since_fill;
            if v.dirty {
                self.stats.writebacks += 1;
                writeback = Some(v.tag << 6);
            }
        }
        *v = Line {
            tag: block,
            valid: true,
            dirty: make_dirty,
            last_use: self.tick,
            hits_since_fill: 0,
        };
        CacheOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without modifying state (used by the covert-channel timer).
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> 6;
        let set = (block as usize) & (self.sets - 1);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|l| l.valid && l.tag == block)
    }

    /// Resize to `capacity_bytes` (same associativity), preserving
    /// resident lines. Lines are re-inserted most-recently-used first:
    /// growth re-homes every line without evicting anything (an old
    /// set's occupants spread across the new sets that its index bits
    /// split into), while shrinking keeps each new set's MRU lines and
    /// spills the rest. Dirty spills are returned for writeback.
    ///
    /// # Panics
    /// Panics on capacities [`MetaCache::new`] would reject.
    pub fn resize(&mut self, capacity_bytes: usize) -> Vec<u64> {
        if capacity_bytes == self.capacity_bytes() {
            return Vec::new();
        }
        let blocks = capacity_bytes / 64;
        assert!(
            blocks >= self.ways && blocks.is_multiple_of(self.ways),
            "capacity {capacity_bytes} incompatible with {} ways",
            self.ways
        );
        let sets = blocks / self.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let old = std::mem::replace(&mut self.lines, vec![Line::default(); blocks]);
        self.sets = sets;
        let mut live: Vec<Line> = old.into_iter().filter(|l| l.valid).collect();
        live.sort_by_key(|l| std::cmp::Reverse(l.last_use));
        let mut spilled = Vec::new();
        for line in live {
            let set = (line.tag as usize) & (self.sets - 1);
            let base = set * self.ways;
            match self.lines[base..base + self.ways]
                .iter_mut()
                .find(|l| !l.valid)
            {
                Some(slot) => *slot = line,
                None => {
                    self.stats.evicted_blocks += 1;
                    self.stats.evicted_block_hits += line.hits_since_fill;
                    if line.dirty {
                        self.stats.writebacks += 1;
                        spilled.push(line.tag << 6);
                    }
                }
            }
        }
        spilled
    }

    /// Drop the line holding `addr` if resident, discarding dirty
    /// contents (the caller is superseding them in memory, e.g. a
    /// counter reset on page free). Returns whether a line was dropped.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let block = addr >> 6;
        let set = (block as usize) & (self.sets - 1);
        let set_lines = &mut self.lines[set * self.ways..(set + 1) * self.ways];
        if let Some(l) = set_lines.iter_mut().find(|l| l.valid && l.tag == block) {
            self.stats.evicted_blocks += 1;
            self.stats.evicted_block_hits += l.hits_since_fill;
            *l = Line::default();
            true
        } else {
            false
        }
    }

    /// Invalidate everything *without* writing dirty lines back:
    /// secure-teardown semantics, where the contents are dead and the
    /// zeroize traffic is charged separately. Returns how many dirty
    /// lines were discarded.
    pub fn discard(&mut self) -> usize {
        let mut dropped = 0;
        for l in &mut self.lines {
            if l.valid {
                self.stats.evicted_blocks += 1;
                self.stats.evicted_block_hits += l.hits_since_fill;
                dropped += usize::from(l.dirty);
            }
            *l = Line::default();
        }
        dropped
    }

    /// Invalidate everything, keeping statistics.
    pub fn flush(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for l in &mut self.lines {
            if l.valid {
                self.stats.evicted_blocks += 1;
                self.stats.evicted_block_hits += l.hits_since_fill;
                if l.dirty {
                    self.stats.writebacks += 1;
                    dirty.push(l.tag << 6);
                }
            }
            *l = Line::default();
        }
        dirty
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }
}

/// Hand-written: the geometry (stored, because partitions are resized
/// at runtime) is checked against the line count before any access
/// indexes `lines` by set and way.
impl Persist for MetaCache {
    fn save(&self, w: &mut SnapWriter) {
        w.section("CACH", 1);
        w.put(&self.sets);
        w.put(&self.ways);
        w.put(&self.tick);
        w.put(&self.lines);
        w.put(&self.stats);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("CACH", 1)?;
        self.sets.load(r, "cache sets")?;
        self.ways.load(r, "cache ways")?;
        self.tick.load(r, "cache tick")?;
        self.lines.load(r, "cache lines")?;
        if !self.sets.is_power_of_two()
            || self.ways == 0
            || self.sets.checked_mul(self.ways) != Some(self.lines.len())
        {
            return Err(SnapError::Corrupt {
                what: "cache geometry",
                at: r.pos(),
            });
        }
        self.stats.load(r, "cache stats")
    }
}

/// Per-enclave partitioned metadata cache (Section III-A).
#[derive(Debug, Clone)]
pub struct PartitionedCache {
    partitions: Vec<MetaCache>,
}

impl PartitionedCache {
    /// `per_enclave_bytes` of cache for each of `enclaves` enclaves.
    pub fn new(enclaves: usize, per_enclave_bytes: usize, ways: usize) -> Self {
        PartitionedCache {
            partitions: (0..enclaves)
                .map(|_| MetaCache::new(per_enclave_bytes, ways))
                .collect(),
        }
    }

    /// Access within enclave `e`'s private partition.
    pub fn access(&mut self, e: usize, addr: u64, make_dirty: bool) -> CacheOutcome {
        self.partitions[e].access(addr, make_dirty)
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.partitions.len()
    }

    /// True when there are no partitions.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
    }

    pub fn partition(&self, e: usize) -> &MetaCache {
        &self.partitions[e]
    }

    pub fn partition_mut(&mut self, e: usize) -> &mut MetaCache {
        &mut self.partitions[e]
    }

    /// Resize partition `e` in place (see [`MetaCache::resize`]); the
    /// other partitions are untouched, so repartitioning can never
    /// evict another enclave's lines.
    pub fn resize_partition(&mut self, e: usize, capacity_bytes: usize) -> Vec<u64> {
        self.partitions[e].resize(capacity_bytes)
    }

    /// Current capacity of every partition, in bytes.
    pub fn capacities(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.capacity_bytes()).collect()
    }

    /// Statistics merged across partitions.
    pub fn stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for p in &self.partitions {
            s.merge(p.stats());
        }
        s
    }
}

/// Hand-written: the partition count is fixed by the engine
/// configuration (resizing changes capacities, never the count).
impl Persist for PartitionedCache {
    fn save(&self, w: &mut SnapWriter) {
        w.put(self.partitions.as_slice());
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.load_exact(
            &mut self.partitions,
            "cache partition count (config mismatch)",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = MetaCache::new(4096, 4);
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        // Same 64B block, different byte.
        assert!(c.access(0x13F, false).hit);
        assert!(!c.access(0x140, false).hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2 ways, 1 set: 128-byte cache.
        let mut c = MetaCache::new(128, 2);
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch 0: now 64 is LRU
        c.access(128, false); // evicts 64
        assert!(c.access(0, false).hit);
        assert!(!c.access(64, false).hit);
    }

    #[test]
    fn dirty_eviction_returns_writeback_address() {
        let mut c = MetaCache::new(128, 2);
        c.access(0, true);
        c.access(64, false);
        let out = c.access(128, false); // evicts dirty block 0
        assert_eq!(out.writeback, Some(0));
        let out = c.access(192, false); // evicts clean block 64
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn dirty_bit_set_on_hit_too() {
        let mut c = MetaCache::new(128, 2);
        c.access(0, false);
        c.access(0, true); // dirtied by a later update
        c.access(64, false);
        let out = c.access(128, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn utilization_counts_hits_per_resident_block() {
        let mut c = MetaCache::new(128, 2);
        c.access(0, false);
        c.access(0, false);
        c.access(0, false); // 2 hits since fill
        c.access(64, false); // 0 hits
        c.access(128, false); // evicts block 0 (LRU)
        c.access(192, false); // evicts block 64
        let s = c.stats();
        assert_eq!(s.evicted_blocks, 2);
        assert_eq!(s.evicted_block_hits, 2);
        assert_eq!(s.hits_per_block(), 1.0);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0x100, false);
        assert!(c.probe(0x100));
        assert!(!c.probe(0x2000));
        let before = *c.stats();
        c.probe(0x100);
        assert_eq!(before, *c.stats());
    }

    #[test]
    fn flush_returns_dirty_blocks() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        let mut dirty = c.flush();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 128]);
        assert!(!c.probe(0));
    }

    #[test]
    fn partitions_are_isolated() {
        let mut p = PartitionedCache::new(2, 128, 2);
        p.access(0, 0, false);
        // Same address in the other partition still misses: no sharing.
        assert!(!p.access(1, 0, false).hit);
        assert!(p.access(0, 0, false).hit);
    }

    #[test]
    fn merged_partition_stats() {
        let mut p = PartitionedCache::new(2, 128, 2);
        p.access(0, 0, false);
        p.access(1, 0, false);
        p.access(1, 0, false);
        let s = p.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn invalid_capacity_rejected() {
        let _ = MetaCache::new(100, 4);
    }

    /// The isolation property behind Section III-B: no amount of fill
    /// pressure from one enclave may evict another enclave's lines.
    #[test]
    fn cross_partition_pressure_cannot_evict() {
        let mut p = PartitionedCache::new(2, 128, 2);
        p.access(0, 0x40, true);
        // Enclave 1 thrashes its 2-line partition far beyond capacity.
        for i in 0..64u64 {
            p.access(1, i * 64, true);
        }
        assert!(
            p.partition(0).probe(0x40),
            "enclave 0's line evicted by enclave 1's fill pressure"
        );
        assert!(p.access(0, 0x40, false).hit);
        assert_eq!(p.partition(0).stats().evicted_blocks, 0);
    }

    /// Exact LRU replacement order under a set-aliasing stride: every
    /// `sets * 64` bytes map to the same set, and dirty evictions reveal
    /// the victim, so the full replacement order is observable.
    #[test]
    fn lru_order_exact_under_aliasing_stride() {
        // 1024 B, 4 ways -> 4 sets; stride 4 * 64 = 256 aliases set 0.
        let mut c = MetaCache::new(1024, 4);
        let stride = 4 * 64u64;
        let addr = |i: u64| i * stride;
        for i in 0..4 {
            assert!(!c.access(addr(i), true).hit);
        }
        // Recency now 0 < 1 < 2 < 3; touching 0 and 2 makes it 1 < 3 < 0 < 2.
        assert!(c.access(addr(0), true).hit);
        assert!(c.access(addr(2), true).hit);
        for (fill, victim) in [(4u64, 1u64), (5, 3), (6, 0), (7, 2)] {
            let out = c.access(addr(fill), true);
            assert!(!out.hit);
            assert_eq!(
                out.writeback,
                Some(addr(victim)),
                "filling {fill} must evict the LRU block {victim}"
            );
        }
        // Other sets were never disturbed by the aliasing stream.
        assert!(!c.access(64, false).hit);
        assert_eq!(c.stats().evicted_blocks, 4);
    }

    /// A 1-partition [`PartitionedCache`] is the shared-mode fallback:
    /// it must behave access-for-access like a bare [`MetaCache`] over
    /// the same interleaved multi-enclave stream.
    #[test]
    fn single_partition_matches_bare_cache() {
        let mut shared = PartitionedCache::new(1, 512, 2);
        let mut bare = MetaCache::new(512, 2);
        // Deterministic mixed stream: varied addresses, dirtiness, and
        // enclave ids (all collapse to partition 0 in shared mode).
        let mut x = 0x9E37_79B9u64;
        for i in 0..500u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 33) % 64 * 64;
            let dirty = x & 1 == 0;
            assert_eq!(
                shared.access(0, addr, dirty),
                bare.access(addr, dirty),
                "divergence at access {i}"
            );
        }
        assert_eq!(shared.stats(), *bare.stats());
        let (mut a, mut b) = (shared.partition_mut(0).flush(), bare.flush());
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "flush must drain identical dirty sets");
    }

    #[test]
    fn largest_valid_capacity_rounds_down_to_a_legal_slice() {
        // 4 ways: one set is 256 B. 5000 B -> 19 sets -> 16 sets.
        assert_eq!(largest_valid_capacity(5000, 4), 16 * 256);
        // Exact powers of two pass through.
        assert_eq!(largest_valid_capacity(4096, 4), 4096);
        // Sub-set budgets clamp to the one-set minimum.
        assert_eq!(largest_valid_capacity(10, 4), 256);
        // The result is always accepted by the constructor.
        for budget in [10, 300, 511, 512, 513, 5000, 65536, 100_000] {
            let _ = MetaCache::new(largest_valid_capacity(budget, 4), 4);
        }
    }

    /// Growing a partition re-homes every resident line: nothing is
    /// lost, nothing spilled, and hits keep coming at the new geometry.
    #[test]
    fn resize_growth_preserves_all_lines() {
        let mut c = MetaCache::new(512, 2); // 4 sets
        let addrs: Vec<u64> = (0..8).map(|i| i * 64).collect();
        for &a in &addrs {
            c.access(a, true);
        }
        let spilled = c.resize(2048); // 16 sets
        assert!(spilled.is_empty(), "growth must never evict");
        assert_eq!(c.stats().evicted_blocks, 0);
        for &a in &addrs {
            assert!(c.probe(a), "line {a:#x} lost across growth");
        }
    }

    /// Shrinking keeps the MRU lines and spills the LRU tail; the dirty
    /// spills come back for writeback and the choice is deterministic.
    #[test]
    fn resize_shrink_spills_lru_tail_deterministically() {
        let build = || {
            let mut c = MetaCache::new(512, 2); // 4 sets, 8 lines
            for i in 0..8u64 {
                c.access(i * 64, true);
            }
            c
        };
        let mut a = build();
        let mut b = build();
        let (mut sa, mut sb) = (a.resize(128), b.resize(128)); // down to 1 set
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "same state must repartition identically");
        // 1 set x 2 ways: the two most recent fills (blocks 6, 7) stay.
        assert!(a.probe(6 * 64) && a.probe(7 * 64));
        assert_eq!(
            sa,
            vec![0, 64, 128, 192, 256, 320],
            "older dirty lines spill"
        );
    }

    /// Satellite invariant: destroying an enclave and redistributing its
    /// ways must never evict a *surviving* partition's lines — only the
    /// resized partition itself may spill, and regrowth spills nothing.
    #[test]
    fn repartition_never_evicts_other_partitions() {
        let mut p = PartitionedCache::new(4, 1024, 4);
        // Warm every partition with dirty lines.
        for e in 0..4 {
            for i in 0..16u64 {
                p.access(e, i * 64, true);
            }
        }
        let before: Vec<CacheStats> = (0..4).map(|e| *p.partition(e).stats()).collect();
        // Enclave 3 dies: survivors 0..3 grow from 1 KiB toward 1365 B
        // budget each -> largest valid slice is still 1 KiB... use a
        // bigger redistribution to force real growth: 2 KiB each.
        for e in 0..3 {
            let spilled = p.resize_partition(e, 2048);
            assert!(spilled.is_empty(), "growth spilled from partition {e}");
        }
        let dead_spill = p.resize_partition(3, 256);
        assert!(!dead_spill.is_empty(), "dead partition shrink must spill");
        for (e, b) in before.iter().enumerate().take(3) {
            let s = p.partition(e).stats();
            assert_eq!(s.evicted_blocks, b.evicted_blocks, "partition {e} evicted");
            assert_eq!(s.writebacks, b.writebacks, "partition {e} wrote back");
            for i in 0..16u64 {
                assert!(p.partition(e).probe(i * 64), "partition {e} lost line {i}");
            }
        }
        // And the redistribution is deterministic: replaying the same
        // history yields byte-identical capacities and spill sets.
        let replay = || {
            let mut q = PartitionedCache::new(4, 1024, 4);
            for e in 0..4 {
                for i in 0..16u64 {
                    q.access(e, i * 64, true);
                }
            }
            let mut spills = Vec::new();
            for e in 0..3 {
                spills.extend(q.resize_partition(e, 2048));
            }
            spills.extend(q.resize_partition(3, 256));
            (q.capacities(), spills)
        };
        assert_eq!(replay(), replay());
    }

    #[test]
    fn invalidate_drops_line_without_writeback() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0x100, true);
        let wb_before = c.stats().writebacks;
        assert!(c.invalidate(0x100));
        assert!(!c.probe(0x100));
        assert!(!c.invalidate(0x100), "second invalidate finds nothing");
        assert_eq!(
            c.stats().writebacks,
            wb_before,
            "no writeback on invalidate"
        );
    }

    #[test]
    fn discard_drops_dirty_state_without_writebacks() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0, true);
        c.access(64, false);
        c.access(128, true);
        assert_eq!(c.discard(), 2);
        assert_eq!(c.stats().writebacks, 0);
        assert!(!c.probe(0) && !c.probe(64) && !c.probe(128));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = MetaCache::new(4096, 4);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats().hit_rate(), 0.5);
    }
}
