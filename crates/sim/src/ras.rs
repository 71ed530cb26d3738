//! Online RAS pipeline: runtime fault injection, correction traffic,
//! patrol scrubbing, and page retirement inside the timing loop.
//!
//! The rest of the workspace computes the paper's reliability numbers
//! *analytically* (Table II) or exercises the chipkill decoder on
//! standalone codewords. This module is the runtime half: a fault
//! process (seeded Poisson arrivals plus scripted chip-kill drills)
//! plants [`Fault`]s into live DRAM state; demand and patrol reads
//! detect corruption via MAC mismatch and trigger the scheme-correct
//! recovery flow as *real* DRAM traffic — the parity fetch (per-block
//! line, shared-parity line, or the ITESP tree leaf) plus the N−1
//! cross-rank group reads for reconstruction — followed by a
//! corrected-data writeback (demand scrub). A leaky-bucket error log
//! retires pages with repeated correctable errors, remapping their
//! leaf-ids through the paper's indirection layer; retirement that
//! breaks a cross-rank parity group without rebuilding it degrades the
//! group to detection-only, and a later fault there is a typed
//! [`RasError`], not a panic.
//!
//! Faulty codewords are decoded *for real*: block contents are
//! materialized deterministically from the address, MACed with a
//! run-seeded key, corrupted through [`itesp_reliability::inject`], and
//! pushed through [`verify_and_correct`] / [`correct_shared`] — so SDC
//! and DUE classifications come from the actual decoder, not a lookup
//! table.
//!
//! Modeling decisions (see DESIGN.md §5):
//! * Recovery grouping is computed in the *physical* block domain with
//!   the engine's `rank_stride_blocks`, matching the cross-rank layout
//!   every scheme's parity assumes; the parity *line address* comes
//!   from [`itesp_core::SecurityEngine::recovery_parity_addr`] so it
//!   lands in the right metadata structure per scheme.
//! * MAC counters are fixed at 1 for materialized codewords: fault
//!   detection depends on MAC mismatch, not on counter history.
//! * Detection is accounted when the read is *issued* (the check rides
//!   the read); recovery traffic is queued behind it in program order.

use std::collections::{HashMap, HashSet};
use std::fmt;

use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::FromValue;

use itesp_core::mac::{mac_block, MacKey};
use itesp_dram::AddressDecoder;
use itesp_reliability::{
    column_parity, correct_shared, inject, verify_and_correct, CodeWord, Correction, Fault,
    Scrubber,
};
use itesp_trace::PAGE_BYTES;

/// Base address of the spare-frame region pages are retired into: far
/// above the data span and every metadata stripe (64 GB data + a few
/// GB of per-enclave metadata), so spare frames never collide.
pub const SPARE_FRAME_BASE: u64 = 1 << 42;

/// Patrol reads issued per DRAM cycle while a scrub-on-detect burst
/// pass is draining.
const BURST_READS_PER_CYCLE: usize = 4;

/// A scripted fault drill: kill chip `chip` of (`channel`, `rank`) at
/// DRAM cycle `at_dram_cycle`. The chip stays dead for the rest of the
/// run — every block in that rank reads back corrupted until corrected
/// (and re-corrupted on the next read, like real dead silicon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Drill {
    pub at_dram_cycle: u64,
    pub channel: u32,
    pub rank: u32,
    pub chip: u8,
}

/// Runtime RAS configuration, attached to
/// [`SystemConfig`](crate::SystemConfig).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RasConfig {
    /// Seed for the fault process (arrival times, fault classes, chip
    /// garbage) and the materialized-codeword MAC key.
    pub seed: u64,
    /// Poisson fault-arrival rate, faults per million DRAM cycles
    /// (0 = no random faults; drills still fire).
    pub fault_rate_per_mcycle: f64,
    /// Scripted chip-kill drills, any order (sorted internally).
    pub drills: Vec<Drill>,
    /// DRAM cycles between background patrol-scrub reads (0 = no
    /// patrol).
    pub patrol_interval: u64,
    /// Leaky-bucket level at which a page is retired (0 = never
    /// retire). Only *transient* (block-level) corrected errors fill
    /// buckets; a dead chip is a device-replacement event, not a page
    /// problem.
    pub retire_threshold: u32,
    /// DRAM cycles between leaky-bucket decrements (0 = buckets never
    /// leak).
    pub leak_interval: u64,
    /// Scrub policy/accounting; `scrub_on_detect` triggers a burst
    /// patrol pass over the whole footprint after any corrected error.
    pub scrubber: Scrubber,
    /// Rebuild parity for groups that lose a member to page retirement
    /// (extra read/write traffic). When `false`, such groups degrade to
    /// detection-only and a later fault there is a [`RasError`].
    pub rebuild_parity_on_retire: bool,
    /// Abort the run with a typed [`RasError`] on the first
    /// detected-but-uncorrectable error instead of counting it.
    pub halt_on_due: bool,
}

impl RasConfig {
    /// A quiet pipeline: no random faults, moderate patrol, retirement
    /// after 4 strikes, scrub-on-detect enabled.
    pub fn new(seed: u64) -> Self {
        RasConfig {
            seed,
            fault_rate_per_mcycle: 0.0,
            drills: Vec::new(),
            patrol_interval: 1024,
            retire_threshold: 4,
            leak_interval: 1 << 20,
            scrubber: Scrubber::hourly().with_scrub_on_detect(),
            rebuild_parity_on_retire: true,
            halt_on_due: false,
        }
    }

    /// Add a Poisson fault process at `rate` faults per million DRAM
    /// cycles.
    pub fn with_fault_rate(mut self, rate: f64) -> Self {
        self.fault_rate_per_mcycle = rate;
        self
    }

    /// Add a scripted chip-kill drill.
    pub fn with_drill(mut self, drill: Drill) -> Self {
        self.drills.push(drill);
        self
    }
}

/// Everything the RAS pipeline measured in one run; attached to
/// [`RunResult`](crate::RunResult) (all zeros when RAS was off).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize, FromValue, Persist)]
pub struct RasStats {
    /// Random faults planted by the Poisson process.
    pub faults_injected: u64,
    /// Scripted drills executed.
    pub drills_executed: u64,
    /// Reads whose MAC check failed (demand + patrol).
    pub detections: u64,
    /// Detections corrected back to the original data.
    pub corrections: u64,
    /// Silent data corruptions: corrupted data consumed with no MAC to
    /// catch it, or a MAC-collision miscorrection.
    pub sdc_events: u64,
    /// Detected-but-uncorrectable events (all causes).
    pub due_events: u64,
    /// The subset of `due_events` caused by a parity group degraded by
    /// page retirement (chipkill lost, detection retained).
    pub degraded_due: u64,
    /// Parity-line fetches issued for recovery.
    pub parity_reads: u64,
    /// Cross-rank companion reads issued for shared-parity
    /// reconstruction.
    pub companion_reads: u64,
    /// Corrected-data writebacks (demand scrub).
    pub scrub_writebacks: u64,
    /// Background patrol-scrub reads issued.
    pub patrol_reads: u64,
    /// Complete patrol passes over the live footprint.
    pub patrol_passes: u64,
    /// Pages retired by the leaky-bucket error log.
    pub pages_retired: u64,
    /// Block reads/writes migrating retired pages to spare frames.
    pub migration_reads: u64,
    pub migration_writes: u64,
    /// Reads/writes rebuilding parity groups broken by retirement.
    pub parity_rebuild_reads: u64,
    pub parity_rebuild_writes: u64,
    /// Parity groups degraded to detection-only by retirement.
    pub broken_groups: u64,
    /// Scrubber bookkeeping (copied out at end of run).
    pub scrubs_run: u64,
    pub errors_cleared: u64,
    /// Worst observed inter-scrub gap, DRAM cycles.
    pub worst_scrub_gap_cycles: u64,
}

impl RasStats {
    /// Extra DRAM reads the pipeline issued beyond the fault-free run.
    pub fn extra_reads(&self) -> u64 {
        self.parity_reads
            + self.companion_reads
            + self.patrol_reads
            + self.migration_reads
            + self.parity_rebuild_reads
    }

    /// Extra DRAM writes the pipeline issued beyond the fault-free run.
    pub fn extra_writes(&self) -> u64 {
        self.scrub_writebacks + self.migration_writes + self.parity_rebuild_writes
    }

    /// Detections that did not end in a correction.
    pub fn uncorrected(&self) -> u64 {
        self.due_events + self.sdc_events
    }
}

/// A detected-but-uncorrectable error, reported as a typed error when
/// [`RasConfig::halt_on_due`] is set (degraded mode never panics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RasError {
    /// No reconstruction produced a matching MAC (or the scheme has no
    /// parity at all): Table II's Case 3/4 DUE class.
    Uncorrectable { addr: u64, dram_cycle: u64 },
    /// The block's parity group lost a member to page retirement and
    /// was not rebuilt: chipkill coverage is gone, detection remains.
    ChipkillLost {
        addr: u64,
        group: u64,
        dram_cycle: u64,
    },
}

impl fmt::Display for RasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RasError::Uncorrectable { addr, dram_cycle } => write!(
                f,
                "detected-but-uncorrectable error at {addr:#x} (DRAM cycle {dram_cycle})"
            ),
            RasError::ChipkillLost {
                addr,
                group,
                dram_cycle,
            } => write!(
                f,
                "error at {addr:#x} in parity group {group} degraded by page retirement \
                 (DRAM cycle {dram_cycle}): chipkill lost, detection only"
            ),
        }
    }
}

impl std::error::Error for RasError {}

/// What a checked read turned out to be; the system translates this
/// into recovery traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ReadCheck {
    /// No fault present.
    Clean,
    /// Fault present but the word verified clean (XOR-cancelled).
    Benign,
    /// Corrupted data consumed silently (no MAC, or miscorrected).
    Silent,
    /// Detected, but the scheme has no parity to reconstruct from.
    DetectedOnly,
    /// Detected in a retirement-degraded group: no reconstruction
    /// attempted.
    Degraded,
    /// Detected and corrected; reconstruction read the group's
    /// `companions` (empty for per-block parity).
    Corrected { companions: Vec<u64> },
    /// Reconstruction was attempted over `companions` but failed
    /// (multi-device corruption in the group).
    Due { companions: Vec<u64> },
}

/// SplitMix64, for deterministic per-address material.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runtime fault state and RAS bookkeeping for one simulation.
#[derive(Debug)]
pub(crate) struct RasEngine {
    pub(crate) cfg: RasConfig,
    /// RNG for the fault process (arrivals, classes, target picks).
    rng: StdRng,
    /// MAC key for materialized codewords.
    key: MacKey,
    /// Blocks one correction parity covers (0 = no parity, 1 =
    /// per-block, N = cross-rank group).
    share: u64,
    /// Rank-rotation stride in blocks (group member spacing).
    stride: u64,
    /// Whether the scheme can detect corruption at all (has a MAC).
    detects: bool,
    /// Dead chips by (channel, rank), from drills.
    dead_chips: HashMap<(u32, u32), u8>,
    /// Transient faults planted on specific blocks (current physical
    /// address -> fault).
    block_faults: HashMap<u64, Fault>,
    /// Touched data blocks in first-touch order (the patrol walk).
    footprint: Vec<u64>,
    live: HashSet<u64>,
    patrol_pos: usize,
    next_patrol: u64,
    /// Patrol reads left in the current scrub-on-detect burst pass.
    burst_remaining: usize,
    /// Next Poisson fault arrival, DRAM cycles (`u64::MAX` = never).
    next_arrival: u64,
    /// Pending drills, sorted by cycle; `drill_pos` advances past fired
    /// ones.
    drills: Vec<Drill>,
    drill_pos: usize,
    /// Leaky buckets: physical page -> correctable-error count.
    buckets: HashMap<u64, u32>,
    next_leak: u64,
    /// Retirement indirection: original page -> current physical page,
    /// and the reverse for chained retirement.
    forward: HashMap<u64, u64>,
    reverse: HashMap<u64, u64>,
    spare_pages: u64,
    /// Pages whose retirement is decided but not yet executed (the
    /// migration runs at the next DRAM tick, outside the fetch path).
    pub(crate) pending_retires: Vec<u64>,
    /// Parity groups degraded to detection-only by retirement.
    broken_groups: HashSet<u64>,
    pub(crate) scrubber: Scrubber,
    pub(crate) stats: RasStats,
    pub(crate) fatal: Option<RasError>,
}

impl RasEngine {
    pub(crate) fn new(cfg: RasConfig, share: u64, stride: u64, detects: bool) -> Self {
        let mut drills = cfg.drills.clone();
        drills.sort_by_key(|d| d.at_dram_cycle);
        let key = MacKey::derive(cfg.seed ^ 0x5EED_0BA5, 0);
        let mut e = RasEngine {
            rng: StdRng::seed_from_u64(cfg.seed),
            key,
            share,
            stride: stride.max(1),
            detects,
            dead_chips: HashMap::new(),
            block_faults: HashMap::new(),
            footprint: Vec::new(),
            live: HashSet::new(),
            patrol_pos: 0,
            next_patrol: cfg.patrol_interval.max(1),
            burst_remaining: 0,
            next_arrival: u64::MAX,
            drills,
            drill_pos: 0,
            buckets: HashMap::new(),
            next_leak: cfg.leak_interval.max(1),
            forward: HashMap::new(),
            reverse: HashMap::new(),
            spare_pages: 0,
            pending_retires: Vec::new(),
            broken_groups: HashSet::new(),
            scrubber: cfg.scrubber,
            stats: RasStats::default(),
            fatal: None,
            cfg,
        };
        e.schedule_arrival(0);
        e
    }

    /// Translate an original physical address through the retirement
    /// map.
    pub(crate) fn translate(&self, paddr: u64) -> u64 {
        let page = paddr / PAGE_BYTES;
        match self.forward.get(&page) {
            Some(&cur) => cur * PAGE_BYTES + paddr % PAGE_BYTES,
            None => paddr,
        }
    }

    /// Record a demand access: the block joins the patrol footprint;
    /// writes clear any planted transient fault (fresh data overwrites
    /// the upset; dead chips of course persist).
    pub(crate) fn on_data_access(&mut self, addr: u64, is_write: bool) {
        let block = addr & !63;
        if self.live.insert(block) {
            self.footprint.push(block);
        }
        if is_write {
            self.block_faults.remove(&block);
        }
    }

    fn schedule_arrival(&mut self, dram_now: u64) {
        if self.cfg.fault_rate_per_mcycle <= 0.0 {
            self.next_arrival = u64::MAX;
            return;
        }
        let u: f64 = self.rng.gen();
        let gap = -(1.0 - u).ln() / (self.cfg.fault_rate_per_mcycle / 1e6);
        let gap = if gap.is_finite() {
            gap.ceil() as u64
        } else {
            1
        };
        self.next_arrival = dram_now.saturating_add(gap.max(1));
    }

    /// The next DRAM cycle at which the fault process, the bucket leak
    /// or the scrubber needs the clock (bounds the run loop's clock
    /// jump).
    pub(crate) fn next_event(&self) -> u64 {
        let mut e = self.next_arrival;
        if let Some(d) = self.drills.get(self.drill_pos) {
            e = e.min(d.at_dram_cycle);
        }
        if self.cfg.leak_interval > 0 {
            e = e.min(self.next_leak);
        }
        if !self.footprint.is_empty() {
            if self.burst_remaining > 0 {
                return 0;
            }
            if self.cfg.patrol_interval > 0 {
                e = e.min(self.next_patrol);
            }
        }
        e
    }

    /// Advance the fault process to `dram_now`: fire due drills, plant
    /// due Poisson faults, leak buckets, and emit the patrol reads due
    /// this cycle (burst passes first).
    pub(crate) fn tick(&mut self, dram_now: u64) -> Vec<u64> {
        while let Some(d) = self.drills.get(self.drill_pos) {
            if d.at_dram_cycle > dram_now {
                break;
            }
            self.dead_chips.insert((d.channel, d.rank), d.chip);
            self.stats.drills_executed += 1;
            self.drill_pos += 1;
        }

        while self.next_arrival <= dram_now {
            if !self.footprint.is_empty() {
                // Pick a live block; a few retries skate past retired
                // entries.
                for _ in 0..8 {
                    let idx = self.rng.gen_range(0..self.footprint.len());
                    let addr = self.footprint[idx];
                    if self.live.contains(&addr) {
                        let fault = Fault::random(&mut self.rng);
                        self.block_faults.insert(addr, fault);
                        self.stats.faults_injected += 1;
                        break;
                    }
                }
            }
            self.schedule_arrival(dram_now);
        }

        if self.cfg.leak_interval > 0 && dram_now >= self.next_leak {
            self.buckets.retain(|_, level| {
                *level = level.saturating_sub(1);
                *level > 0
            });
            self.next_leak = dram_now + self.cfg.leak_interval;
        }

        let mut reads = Vec::new();
        if !self.footprint.is_empty() {
            if self.burst_remaining > 0 {
                let n = self.burst_remaining.min(BURST_READS_PER_CYCLE);
                for _ in 0..n {
                    if let Some(addr) = self.patrol_next(dram_now) {
                        reads.push(addr);
                    }
                    self.burst_remaining -= 1;
                }
            } else if self.cfg.patrol_interval > 0 && dram_now >= self.next_patrol {
                if let Some(addr) = self.patrol_next(dram_now) {
                    reads.push(addr);
                }
                self.next_patrol = dram_now + self.cfg.patrol_interval;
            }
        }
        reads
    }

    /// Next live block on the patrol walk; wrapping completes a pass.
    fn patrol_next(&mut self, dram_now: u64) -> Option<u64> {
        for _ in 0..=self.footprint.len() {
            if self.patrol_pos >= self.footprint.len() {
                self.patrol_pos = 0;
                self.stats.patrol_passes += 1;
                self.scrubber.on_periodic_scrub(dram_now);
            }
            let addr = self.footprint[self.patrol_pos];
            self.patrol_pos += 1;
            if self.live.contains(&addr) {
                return Some(addr);
            }
        }
        None
    }

    /// Deterministic "stored" contents of a block: what an uncorrupted
    /// read would return.
    fn pristine(&self, addr: u64) -> CodeWord {
        let mut data = [0u8; 64];
        let mut x = splitmix(addr ^ 0xB10C_DA7A);
        for chunk in data.chunks_mut(8) {
            x = splitmix(x);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        let mac = mac_block(&self.key, &data, 1, addr);
        CodeWord::new(data, mac)
    }

    /// Faults affecting a read of `addr` right now: a dead chip in its
    /// rank, plus any planted block fault.
    fn faults_at(&self, addr: u64, decoder: &AddressDecoder) -> Vec<Fault> {
        let mut v = Vec::new();
        let d = decoder.decode(addr);
        if let Some(&chip) = self.dead_chips.get(&(d.channel, d.rank)) {
            v.push(Fault::Chip { chip });
        }
        if let Some(&f) = self.block_faults.get(&(addr & !63)) {
            v.push(f);
        }
        v
    }

    /// The word a read of `addr` returns: pristine contents with every
    /// active fault injected. Injection garbage is derived from the
    /// address and run seed so repeated reads are deterministic.
    fn word_as_read(&self, addr: u64, decoder: &AddressDecoder) -> CodeWord {
        let mut word = self.pristine(addr);
        let faults = self.faults_at(addr, decoder);
        if !faults.is_empty() {
            let mut grng = StdRng::seed_from_u64(splitmix(self.cfg.seed ^ addr));
            for f in faults {
                inject(&mut word, f, &mut grng);
            }
        }
        word
    }

    /// All members of `block`'s cross-rank parity group (including
    /// itself), in rank order.
    fn group_blocks(&self, block: u64) -> Vec<u64> {
        let window = self.stride * self.share;
        let base = (block / window) * window + block % self.stride;
        (0..self.share).map(|k| base + k * self.stride).collect()
    }

    /// Stable id of `block`'s parity group (physical domain).
    fn group_id(&self, block: u64) -> u64 {
        let window = self.stride * self.share;
        (block / window) * self.stride + block % self.stride
    }

    /// Run the real decoder on `addr` as read; returns the outcome and
    /// whether the fixed word matches the pristine contents.
    fn decode(&self, addr: u64, decoder: &AddressDecoder) -> (Correction, bool, Vec<u64>) {
        let pristine = self.pristine(addr);
        let word = self.word_as_read(addr, decoder);
        if self.share <= 1 {
            let parity = column_parity(&pristine);
            let (c, fixed) = verify_and_correct(&word, parity, &self.key, 1, addr);
            (c, fixed == pristine, Vec::new())
        } else {
            let block = addr / 64;
            let members = self.group_blocks(block);
            let mut companions = Vec::with_capacity(members.len() - 1);
            let mut companion_words = Vec::with_capacity(members.len() - 1);
            let mut shared = 0u64;
            for &m in &members {
                shared ^= column_parity(&self.pristine(m * 64));
                if m != block {
                    companions.push(m * 64);
                    companion_words.push(self.word_as_read(m * 64, decoder));
                }
            }
            let (c, fixed) = correct_shared(&word, shared, &companion_words, &self.key, 1, addr);
            (c, fixed == pristine, companions)
        }
    }

    fn raise(&mut self, err: RasError) {
        if self.cfg.halt_on_due && self.fatal.is_none() {
            self.fatal = Some(err);
        }
    }

    /// Check a read of `addr` (demand or patrol) against the live fault
    /// state and classify it, updating fault state and statistics. The
    /// caller turns the result into recovery traffic.
    pub(crate) fn check_read(
        &mut self,
        addr: u64,
        decoder: &AddressDecoder,
        dram_now: u64,
    ) -> ReadCheck {
        let block_addr = addr & !63;
        if self.faults_at(block_addr, decoder).is_empty() {
            return ReadCheck::Clean;
        }

        if !self.detects {
            // No MAC: corrupted data is consumed as-is.
            self.stats.sdc_events += 1;
            return ReadCheck::Silent;
        }

        if self.share == 0 {
            // Detection without correction (no parity anywhere).
            let word = self.word_as_read(block_addr, decoder);
            if mac_block(&self.key, &word.data, 1, block_addr) == word.mac() {
                self.block_faults.remove(&block_addr);
                return ReadCheck::Benign;
            }
            self.stats.detections += 1;
            self.stats.due_events += 1;
            self.raise(RasError::Uncorrectable {
                addr: block_addr,
                dram_cycle: dram_now,
            });
            return ReadCheck::DetectedOnly;
        }

        let block = block_addr / 64;
        if self.share > 1 && self.broken_groups.contains(&self.group_id(block)) {
            // Chipkill lost to retirement: detect, don't reconstruct.
            self.stats.detections += 1;
            self.stats.due_events += 1;
            self.stats.degraded_due += 1;
            self.raise(RasError::ChipkillLost {
                addr: block_addr,
                group: self.group_id(block),
                dram_cycle: dram_now,
            });
            return ReadCheck::Degraded;
        }

        let (correction, restored, companions) = self.decode(block_addr, decoder);
        match correction {
            Correction::Clean => {
                // The injected fault XOR-cancelled: data verifies fine.
                self.block_faults.remove(&block_addr);
                ReadCheck::Benign
            }
            Correction::Corrected { .. } => {
                self.stats.detections += 1;
                if !restored {
                    // MAC collision on the wrong candidate: silent.
                    self.stats.sdc_events += 1;
                    return ReadCheck::Silent;
                }
                self.stats.corrections += 1;
                if self.scrubber.on_error_detected(dram_now) {
                    // Scrub-on-detect: burst-patrol the whole footprint.
                    self.burst_remaining = self.burst_remaining.max(self.footprint.len());
                }
                let transient = self.block_faults.remove(&block_addr).is_some();
                if transient && self.cfg.retire_threshold > 0 {
                    let page = block_addr / PAGE_BYTES;
                    let level = self.buckets.entry(page).or_insert(0);
                    *level += 1;
                    if *level >= self.cfg.retire_threshold {
                        self.buckets.remove(&page);
                        self.pending_retires.push(page);
                    }
                }
                ReadCheck::Corrected { companions }
            }
            Correction::Ambiguous | Correction::Uncorrectable => {
                self.stats.detections += 1;
                self.stats.due_events += 1;
                self.raise(RasError::Uncorrectable {
                    addr: block_addr,
                    dram_cycle: dram_now,
                });
                ReadCheck::Due { companions }
            }
        }
    }

    /// Execute the retirement of physical page `page`: allocate a spare
    /// frame, update the indirection maps and footprint, and return the
    /// *original* page (for leaf-id remapping), the migration plan
    /// `(old_block, new_block)` pairs, and the parity groups that lose
    /// an external member. The caller emits the traffic and remaps
    /// leaf-ids.
    pub(crate) fn retire_page(&mut self, page: u64) -> (u64, Vec<(u64, u64)>, Vec<u64>) {
        let orig = self.reverse.get(&page).copied().unwrap_or(page);
        let new_page = SPARE_FRAME_BASE / PAGE_BYTES + self.spare_pages;
        self.spare_pages += 1;
        self.forward.insert(orig, new_page);
        self.reverse.remove(&page);
        self.reverse.insert(new_page, orig);
        self.stats.pages_retired += 1;

        let blocks = PAGE_BYTES / 64;
        let mut moves = Vec::with_capacity(blocks as usize);
        for b in 0..blocks {
            let old = page * PAGE_BYTES + b * 64;
            let new = new_page * PAGE_BYTES + b * 64;
            moves.push((old, new));
            // Migration rereads (and corrects) each block, so planted
            // transient faults do not follow the data.
            self.block_faults.remove(&old);
            if self.live.remove(&old) {
                self.live.insert(new);
                self.footprint.push(new);
            }
        }
        self.buckets.remove(&page);

        // Groups with members outside the page lose chipkill unless
        // rebuilt.
        let mut affected = Vec::new();
        if self.share > 1 {
            let first = page * PAGE_BYTES / 64;
            let mut seen = HashSet::new();
            for b in first..first + blocks {
                let gid = self.group_id(b);
                if !seen.insert(gid) {
                    continue;
                }
                let outside = self
                    .group_blocks(b)
                    .iter()
                    .any(|&m| m < first || m >= first + blocks);
                if outside {
                    affected.push(gid);
                }
            }
        }
        (orig, moves, affected)
    }

    /// Mark a parity group as degraded (retired member, no rebuild).
    pub(crate) fn break_group(&mut self, gid: u64) {
        if self.broken_groups.insert(gid) {
            self.stats.broken_groups += 1;
        }
    }

    /// External members of group `gid` outside page `page` (for parity
    /// rebuild traffic).
    pub(crate) fn group_members_outside(&self, gid: u64, page: u64) -> Vec<u64> {
        let window = self.stride * self.share;
        let base = (gid / self.stride) * window + gid % self.stride;
        let first = page * PAGE_BYTES / 64;
        let last = first + PAGE_BYTES / 64;
        (0..self.share)
            .map(|k| base + k * self.stride)
            .filter(|&m| m < first || m >= last)
            .map(|m| m * 64)
            .collect()
    }

    /// Fold the scrubber's counters into the stats snapshot.
    pub(crate) fn finalize_stats(&mut self) {
        self.stats.scrubs_run = self.scrubber.scrubs_run();
        self.stats.errors_cleared = self.scrubber.errors_cleared();
        self.stats.worst_scrub_gap_cycles = self.scrubber.worst_gap_cycles();
    }
}

/// Hand-written: the RNG travels as its raw stream position, the drill
/// cursor is checked against the drill list rebuilt from `cfg`, and a
/// restore clears any pending fatal error. Config-derived fields
/// (`key`, `share`, `stride`, `detects`, the sorted drill list) are
/// rebuilt at construction and not stored.
///
/// # Panics
/// `save` panics if a fatal [`RasError`] is pending — a run that is
/// about to abort must not checkpoint as healthy.
impl Persist for RasEngine {
    fn save(&self, w: &mut SnapWriter) {
        assert!(
            self.fatal.is_none(),
            "refusing to snapshot a RAS pipeline with a pending fatal error"
        );
        w.section("RASE", 1);
        w.put(&self.rng.state());
        w.put(&self.dead_chips);
        w.put(&self.block_faults);
        w.put(&self.footprint);
        w.put(&self.live);
        w.put(&self.patrol_pos);
        w.put(&self.next_patrol);
        w.put(&self.burst_remaining);
        w.put(&self.next_arrival);
        w.put(&self.drill_pos);
        w.put(&self.buckets);
        w.put(&self.next_leak);
        w.put(&self.forward);
        w.put(&self.reverse);
        w.put(&self.spare_pages);
        w.put(&self.pending_retires);
        w.put(&self.broken_groups);
        w.put(&self.scrubber);
        w.put(&self.stats);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("RASE", 1)?;
        self.rng = StdRng::from_state(r.get("ras rng state")?);
        self.dead_chips.load(r, "dead chips")?;
        self.block_faults.load(r, "block faults")?;
        self.footprint.load(r, "patrol footprint")?;
        self.live.load(r, "live blocks")?;
        self.patrol_pos.load(r, "patrol pos")?;
        self.next_patrol.load(r, "next patrol")?;
        self.burst_remaining.load(r, "burst remaining")?;
        self.next_arrival.load(r, "next arrival")?;
        self.drill_pos.load(r, "drill pos")?;
        if self.drill_pos > self.drills.len() {
            return Err(SnapError::Corrupt {
                what: "drill position past the drill list",
                at: r.pos(),
            });
        }
        self.buckets.load(r, "leaky buckets")?;
        self.next_leak.load(r, "next leak")?;
        self.forward.load(r, "retire forward map")?;
        self.reverse.load(r, "retire reverse map")?;
        self.spare_pages.load(r, "spare pages")?;
        self.pending_retires.load(r, "pending retires")?;
        self.broken_groups.load(r, "broken groups")?;
        self.scrubber.load(r, "scrubber")?;
        self.stats.load(r, "ras stats")?;
        self.fatal = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_dram::{AddressMapping, DramGeometry};

    fn decoder() -> AddressDecoder {
        AddressDecoder::new(DramGeometry::table_iii(), AddressMapping::RowBufferHit4)
    }

    fn engine(share: u64) -> RasEngine {
        RasEngine::new(RasConfig::new(11), share, 4, true)
    }

    #[test]
    fn clean_reads_stay_clean() {
        let d = decoder();
        let mut e = engine(8);
        e.on_data_access(0x4000, false);
        assert_eq!(e.check_read(0x4000, &d, 10), ReadCheck::Clean);
        assert_eq!(e.stats.detections, 0);
    }

    #[test]
    fn transient_fault_is_detected_corrected_and_cleared() {
        let d = decoder();
        let mut e = engine(8);
        e.on_data_access(0x4000, false);
        e.block_faults.insert(0x4000, Fault::Chip { chip: 3 });
        match e.check_read(0x4000, &d, 10) {
            ReadCheck::Corrected { companions } => {
                assert_eq!(companions.len(), 7, "N-1 cross-rank reads");
                // Companions are the other group members, 4 blocks apart.
                for c in &companions {
                    assert_ne!(*c, 0x4000);
                    assert_eq!((c / 64) % 4, (0x4000u64 / 64) % 4);
                }
            }
            other => panic!("expected correction, got {other:?}"),
        }
        assert_eq!(e.stats.corrections, 1);
        // Fault cleared: the next read is clean.
        assert_eq!(e.check_read(0x4000, &d, 11), ReadCheck::Clean);
    }

    #[test]
    fn per_block_parity_corrects_without_companions() {
        let d = decoder();
        let mut e = engine(1);
        e.block_faults.insert(0x80, Fault::Pin { chip: 2, pin: 5 });
        match e.check_read(0x80, &d, 5) {
            ReadCheck::Corrected { companions } => assert!(companions.is_empty()),
            other => panic!("expected correction, got {other:?}"),
        }
    }

    #[test]
    fn dead_chip_faults_every_block_in_the_rank() {
        let d = decoder();
        let mut e = engine(8);
        // Rank of block 0 under 4-RBH is rank 0.
        e.dead_chips.insert((0, 0), 5);
        assert!(matches!(
            e.check_read(0, &d, 5),
            ReadCheck::Corrected { .. }
        ));
        // Still faulted on the next read: the chip is dead silicon.
        assert!(matches!(
            e.check_read(0, &d, 6),
            ReadCheck::Corrected { .. }
        ));
        assert_eq!(e.stats.corrections, 2);
        // A block in another rank is untouched (block 4 -> rank 1).
        assert_eq!(e.check_read(4 * 64, &d, 7), ReadCheck::Clean);
    }

    #[test]
    fn no_mac_means_silent_corruption() {
        let d = decoder();
        let mut e = RasEngine::new(RasConfig::new(3), 0, 4, false);
        e.block_faults.insert(0, Fault::Chip { chip: 1 });
        assert_eq!(e.check_read(0, &d, 5), ReadCheck::Silent);
        assert_eq!(e.stats.sdc_events, 1);
        assert_eq!(e.stats.detections, 0);
    }

    #[test]
    fn detection_without_parity_is_a_due() {
        let d = decoder();
        let mut cfg = RasConfig::new(3);
        cfg.halt_on_due = true;
        let mut e = RasEngine::new(cfg, 0, 4, true);
        e.block_faults.insert(0, Fault::Chip { chip: 1 });
        assert_eq!(e.check_read(0, &d, 5), ReadCheck::DetectedOnly);
        assert_eq!(e.stats.due_events, 1);
        assert!(matches!(
            e.fatal,
            Some(RasError::Uncorrectable { addr: 0, .. })
        ));
    }

    #[test]
    fn two_dead_chips_in_one_group_defeat_correction() {
        let d = decoder();
        let mut e = engine(8);
        // Block 0's group members sit in ranks 0..8 (stride 4); kill a
        // chip in two of them.
        e.dead_chips.insert((0, 0), 2);
        e.dead_chips.insert((0, 3), 7);
        match e.check_read(0, &d, 5) {
            ReadCheck::Due { companions } => assert_eq!(companions.len(), 7),
            other => panic!("expected DUE, got {other:?}"),
        }
        assert_eq!(e.stats.due_events, 1);
    }

    #[test]
    fn degraded_group_reports_chipkill_lost() {
        let d = decoder();
        let mut cfg = RasConfig::new(9);
        cfg.halt_on_due = true;
        let mut e = RasEngine::new(cfg, 8, 4, true);
        let gid = e.group_id(0);
        e.break_group(gid);
        e.block_faults.insert(0, Fault::Chip { chip: 4 });
        assert_eq!(e.check_read(0, &d, 42), ReadCheck::Degraded);
        assert_eq!(e.stats.degraded_due, 1);
        assert!(matches!(
            e.fatal,
            Some(RasError::ChipkillLost { group, .. }) if group == gid
        ));
    }

    #[test]
    fn retirement_moves_the_page_and_translates_addresses() {
        let mut e = engine(8);
        e.on_data_access(0x1000, false);
        let page = 0x1000 / PAGE_BYTES;
        let (orig, moves, affected) = e.retire_page(page);
        assert_eq!(orig, page);
        assert_eq!(moves.len(), (PAGE_BYTES / 64) as usize);
        // 4-RBH groups (stride 4, share 8 -> 32-block windows) sit
        // entirely inside a 64-block page: nothing is broken.
        assert!(affected.is_empty());
        let t = e.translate(0x1000);
        assert!(t >= SPARE_FRAME_BASE, "translated into the spare region");
        assert_eq!(t % PAGE_BYTES, 0x1000 % PAGE_BYTES);
        assert_eq!(e.stats.pages_retired, 1);
        // The footprint follows the data.
        assert!(e.live.contains(&t));
        assert!(!e.live.contains(&0x1000));
    }

    #[test]
    fn chained_retirement_keeps_one_hop_translation() {
        let mut e = engine(8);
        let page = 7u64;
        e.retire_page(page);
        let first = e.translate(page * PAGE_BYTES) / PAGE_BYTES;
        let (orig, _, _) = e.retire_page(first);
        assert_eq!(orig, page, "retiring a spare frame traces to the origin");
        let second = e.translate(page * PAGE_BYTES) / PAGE_BYTES;
        assert_ne!(second, first);
        assert_ne!(second, page);
        assert!(second >= SPARE_FRAME_BASE / PAGE_BYTES);
    }

    #[test]
    fn wide_stride_retirement_breaks_cross_page_groups() {
        // Column mapping: stride 1024 -> groups span 8 K blocks, far
        // beyond one page; retirement must report every page group.
        let mut e = RasEngine::new(RasConfig::new(5), 8, 1024, true);
        let (_, _, affected) = e.retire_page(3);
        assert!(!affected.is_empty());
        for gid in &affected {
            let outside = e.group_members_outside(*gid, 3);
            assert!(!outside.is_empty());
            assert!(outside.len() < 8, "the retired member is excluded");
        }
    }

    #[test]
    fn drills_fire_at_their_cycle() {
        let cfg = RasConfig::new(1).with_drill(Drill {
            at_dram_cycle: 100,
            channel: 0,
            rank: 3,
            chip: 6,
        });
        let mut e = RasEngine::new(cfg, 8, 4, true);
        e.tick(99);
        assert_eq!(e.stats.drills_executed, 0);
        e.tick(100);
        assert_eq!(e.stats.drills_executed, 1);
        assert_eq!(e.dead_chips.get(&(0, 3)), Some(&6));
    }

    #[test]
    fn poisson_arrivals_plant_faults_on_the_footprint() {
        let cfg = RasConfig::new(2).with_fault_rate(1e5);
        let mut e = RasEngine::new(cfg, 8, 4, true);
        for b in 0..32u64 {
            e.on_data_access(b * 64, false);
        }
        for now in 0..2000 {
            e.tick(now);
        }
        assert!(e.stats.faults_injected > 0, "high rate must plant faults");
        assert!(e.block_faults.keys().all(|a| e.live.contains(&(a & !63))));
    }

    #[test]
    fn patrol_walks_the_footprint_and_counts_passes() {
        let mut cfg = RasConfig::new(4);
        cfg.patrol_interval = 1;
        let mut e = RasEngine::new(cfg, 8, 4, true);
        for b in 0..8u64 {
            e.on_data_access(b * 64, false);
        }
        let mut issued = Vec::new();
        for now in 1..=17 {
            issued.extend(e.tick(now));
        }
        assert_eq!(issued.len(), 17);
        assert_eq!(e.stats.patrol_passes, 2, "17 reads over 8 blocks");
        assert!(e.scrubber.scrubs_run() >= 2);
    }

    #[test]
    fn scrub_on_detect_burst_covers_the_footprint() {
        let d = decoder();
        let mut cfg = RasConfig::new(6);
        cfg.patrol_interval = 0; // no periodic patrol
        let mut e = RasEngine::new(cfg, 8, 4, true);
        for b in 0..16u64 {
            e.on_data_access(b * 64, false);
        }
        e.block_faults.insert(0, Fault::Pin { chip: 0, pin: 0 });
        assert!(matches!(
            e.check_read(0, &d, 50),
            ReadCheck::Corrected { .. }
        ));
        assert_eq!(e.burst_remaining, 16, "burst pass over the footprint");
        let mut burst = Vec::new();
        for now in 51..60 {
            burst.extend(e.tick(now));
        }
        assert_eq!(burst.len(), 16, "burst drains at a bounded rate");
        assert_eq!(e.burst_remaining, 0);
    }

    #[test]
    fn deterministic_fault_process() {
        let mk = || {
            let cfg = RasConfig::new(77).with_fault_rate(5e4);
            let mut e = RasEngine::new(cfg, 8, 4, true);
            for b in 0..64u64 {
                e.on_data_access(b * 64, false);
            }
            for now in 0..5000 {
                e.tick(now);
            }
            (e.stats.faults_injected, e.block_faults.len())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn next_event_bounds_the_clock_jump() {
        let mut cfg = RasConfig::new(1).with_fault_rate(10.0).with_drill(Drill {
            at_dram_cycle: 500,
            channel: 0,
            rank: 0,
            chip: 0,
        });
        cfg.leak_interval = 300;
        let mut e = RasEngine::new(cfg, 8, 4, true);
        assert!(e.next_event() <= 300, "the first leak bounds the jump");
        e.tick(300);
        assert_eq!(e.next_leak, 600);
        assert!(e.next_event() <= 500, "the drill bounds the jump");
        e.tick(500);
        assert!(
            e.next_event() <= e.next_leak,
            "the next leak bounds the jump"
        );
    }
}
