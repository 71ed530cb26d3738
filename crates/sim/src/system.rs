//! The full-system simulator: N cores replaying LLC-filtered traces
//! through the security engine into the DRAM model.
//!
//! Core model (USIMM-style, Table III): a 64-entry, 4-wide ROB per
//! core. Trace gaps are non-memory instructions fetched 4 per cycle;
//! reads issue to memory at fetch (out-of-order execute) but block
//! retirement at the ROB head until data returns; writes enter the
//! memory controller's write queue at retirement. Metadata transactions
//! produced by the engine contend for the same controller queues —
//! verification latency itself is hidden by speculation, so metadata
//! costs *bandwidth*, which is the paper's premise.

use std::collections::{HashMap, VecDeque};

use itesp_core::{EngineConfig, MetaAccess, SecurityEngine};
use itesp_dram::{Completion, DramConfig, IssuedCommand, MemorySystem, RequestId};
use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter, SnapshotSink, StoreError};
use itesp_trace::{ChurnWorkload, MemOp, MultiProgram, PhysRecord, PAGE_BYTES};

use crate::churn::ChurnDriver;
use crate::ras::{RasConfig, RasEngine, RasError, RasStats, ReadCheck};
use crate::stats::RunResult;

/// CPU cycles per DRAM bus cycle (3.2 GHz core, 800 MHz DDR3 bus).
pub const CPU_PER_DRAM_CYCLE: u64 = 4;

/// ROB entries per core (Table III).
const ROB_SIZE: u64 = 64;

/// Fetch/retire width, instructions per cycle (Table III).
const WIDTH: u64 = 4;

/// Full-system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    pub dram: DramConfig,
    pub engine: EngineConfig,
    /// Online RAS pipeline (fault injection, correction traffic, patrol
    /// scrub, page retirement); `None` = faults off, zero overhead.
    pub ras: Option<RasConfig>,
}

impl SystemConfig {
    /// Table III defaults for the given engine configuration.
    pub fn table_iii(dram: DramConfig, engine: EngineConfig) -> Self {
        SystemConfig {
            dram,
            engine,
            ras: None,
        }
    }

    /// Enable the online RAS pipeline.
    pub fn with_ras(mut self, ras: RasConfig) -> Self {
        self.ras = Some(ras);
        self
    }
}

/// Why a run stopped without a result.
#[derive(Debug)]
pub enum RunError {
    /// A fatal RAS error under [`RasConfig::halt_on_due`].
    Ras(RasError),
    /// The attached snapshot sink could not commit a capture.
    Snapshot(StoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Ras(e) => write!(f, "fatal RAS error: {e}"),
            RunError::Snapshot(e) => write!(f, "snapshot capture failed: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Ras(e) => Some(e),
            RunError::Snapshot(e) => Some(e),
        }
    }
}

/// A completed demand read's owner; writes and metadata requests are
/// fire-and-forget and never enter this map.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
struct ReqTag {
    core: usize,
    rob_pos: u64,
}

#[derive(Debug, Clone, Copy, Default, Persist)]
struct PendingRead {
    rob_pos: u64,
    done: bool,
}

/// Per-core replay state. The trace is written by
/// [`System::save_state`] itself: verbatim for churn runs, as a length
/// check otherwise.
#[derive(Debug, Persist)]
struct Core {
    #[persist(skip)]
    trace: Vec<PhysRecord>,
    /// Next record index.
    pos: usize,
    /// Remaining gap instructions of the current record still to fetch.
    gap_left: u64,
    /// True when the current record's memory op has been fetched/issued.
    op_issued: bool,
    /// Cumulative instructions fetched / retired.
    fetched: u64,
    retired: u64,
    reads: VecDeque<PendingRead>,
    /// A write waiting at the head of the ROB for write-queue space.
    blocked_write: Option<u64>,
    /// Fetch frozen until this cycle (counter-overflow re-encryption).
    stall_until: u64,
    /// Cycle at which this core retired its last instruction.
    finish: Option<u64>,
}

impl Core {
    fn new(trace: Vec<PhysRecord>) -> Self {
        let gap_left = trace.first().map_or(0, |r| u64::from(r.gap));
        Core {
            trace,
            pos: 0,
            gap_left,
            op_issued: false,
            fetched: 0,
            retired: 0,
            reads: VecDeque::new(),
            blocked_write: None,
            stall_until: 0,
            finish: None,
        }
    }

    fn trace_done(&self) -> bool {
        self.pos >= self.trace.len()
    }

    fn done(&self) -> bool {
        self.trace_done() && self.retired == self.fetched && self.blocked_write.is_none()
    }

    fn rob_occupancy(&self) -> u64 {
        self.fetched - self.retired
    }

    /// Advance to the next trace record after the current one's op
    /// has been fetched.
    fn advance_record(&mut self) {
        self.pos += 1;
        self.op_issued = false;
        self.gap_left = self.trace.get(self.pos).map_or(0, |r| u64::from(r.gap));
    }

    /// Replace the trace for the slot's next enclave session (churn
    /// only; the previous session has fully drained by then).
    fn reload(&mut self, trace: Vec<PhysRecord>) {
        debug_assert!(self.done(), "reloading a core with work in flight");
        *self = Core::new(trace);
    }
}

/// Per-core first-touch leaf-id assignment: physical page -> leaf id.
/// `next` outlives removals and retirement remaps, so a retired page's
/// fresh leaf id never collides with a live one.
#[derive(Debug, Clone, Default, Persist)]
struct LeafMap {
    map: HashMap<u64, u64>,
    next: u64,
}

/// The assembled system.
pub struct System {
    mem: MemorySystem,
    engine: SecurityEngine,
    cores: Vec<Core>,
    tags: HashMap<RequestId, ReqTag>,
    /// Metadata (and data-write) transactions waiting for queue space.
    pending_meta: VecDeque<(u64, bool)>,
    /// First-touch leaf-id maps, one per core; the RAS retirement path
    /// remaps entries, which is why they live on the system.
    leaf_maps: Vec<LeafMap>,
    /// Online RAS pipeline, if configured (`take`n during hooks to keep
    /// the borrow checker happy). Boxed, like `churn`, so the per-step
    /// take/put moves a pointer, not the engine.
    ras: Option<Box<RasEngine>>,
    /// Where each DRAM data block's metadata lives: block address ->
    /// (partition, engine-domain block), for recovery parity lookups on
    /// patrol reads.
    ras_loc: HashMap<u64, (usize, u64)>,
    /// Enclave lifecycle driver (`take`n during fetch/tick, like the
    /// RAS engine); `None` = static workload.
    churn: Option<Box<ChurnDriver>>,
    isolated: bool,
    cycle: u64,
    /// Cores proven stalled until a memory completion, or finished
    /// until the churn driver reloads their slot: their per-cycle
    /// retire/fetch calls are provable no-ops and are skipped. A read
    /// completion or a session reload unparks; RAS hooks never touch
    /// core state. Not part of a snapshot: it elides work, it is not
    /// state.
    parked: Vec<bool>,
    /// Core parking and bulk advance on (the default). Off only in the
    /// stepping oracle, which checks that they change no result.
    fast_paths: bool,
    /// Reusable completion-drain buffer for the run loop.
    comp_buf: Vec<Completion>,
    /// Durable checkpoint sink, if crash recovery is enabled
    /// (`take`n around captures, like the RAS engine).
    snap: Option<SnapshotSink>,
}

impl System {
    /// Build a system replaying `workload` (one trace per core).
    pub fn new(cfg: SystemConfig, workload: &MultiProgram) -> Self {
        Self::from_traces(cfg, workload.traces.clone())
    }

    fn from_traces(cfg: SystemConfig, traces: Vec<Vec<PhysRecord>>) -> Self {
        let mem = MemorySystem::new(cfg.dram);
        let engine = SecurityEngine::new(cfg.engine);
        let cores: Vec<Core> = traces.into_iter().map(Core::new).collect();
        let ncores = cores.len();
        let isolated = engine.spec().isolated;
        let ras = cfg.ras.map(|rc| {
            Box::new(RasEngine::new(
                rc,
                engine.parity_group_share(),
                cfg.engine.rank_stride_blocks,
                // Detection is a model property, not a tree property:
                // SecDDR detects through the link MAC with no tree at
                // all (its faults become DUEs, not SDCs).
                engine.detects_errors(),
            ))
        });
        let leaf_maps = vec![LeafMap::default(); cores.len()];
        System {
            mem,
            engine,
            cores,
            tags: HashMap::new(),
            pending_meta: VecDeque::new(),
            leaf_maps,
            ras,
            ras_loc: HashMap::new(),
            churn: None,
            isolated,
            cycle: 0,
            parked: vec![false; ncores],
            fast_paths: true,
            comp_buf: Vec::new(),
            snap: None,
        }
    }

    /// Enable durable checkpointing: the run loop captures a full-state
    /// snapshot through `sink` on its cadence (always on a DRAM-aligned
    /// CPU cycle, at the top of the loop, so a recovered run resumes at
    /// exactly the captured point).
    pub fn attach_snapshots(&mut self, sink: SnapshotSink) {
        self.snap = Some(sink);
    }

    /// Turn off core parking and the clock jump: every core steps every
    /// CPU cycle and memory every DRAM cycle, in the same run loop. The
    /// stepping oracle compares such a run with the normal one.
    #[cfg(feature = "stepping-oracle")]
    pub fn step_every_cycle(&mut self) {
        self.fast_paths = false;
    }

    /// Current CPU cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Build a system serving a churn schedule: cores start empty and
    /// the lifecycle driver admits/destroys enclave sessions as their
    /// arrival times pass. `seed` keys page placement and per-enclave
    /// MAC keys.
    ///
    /// # Panics
    /// Panics if the workload's slot count differs from the engine's
    /// enclave count (slot i maps to cache/tree partition i).
    pub fn new_churn(cfg: SystemConfig, workload: &ChurnWorkload, seed: u64) -> Self {
        let slots = workload.slots.len();
        assert_eq!(
            cfg.engine.enclaves, slots,
            "churn needs one engine enclave per slot"
        );
        let phys_bytes = cfg.dram.geometry.capacity_bytes();
        let mut sys = Self::from_traces(cfg, vec![Vec::new(); slots]);
        sys.churn = Some(Box::new(ChurnDriver::new(workload, phys_bytes, seed)));
        sys
    }

    /// Dense per-enclave block index for an access: the engine needs
    /// the leaf-id page plus the in-page offset. The physical trace was
    /// produced by first-touch allocation, so numbering each core's
    /// physical pages in first-touch order, via a per-core map, yields
    /// the dense leaf-ids.
    fn enclave_block(lm: &mut LeafMap, paddr: u64) -> u64 {
        let page = paddr / PAGE_BYTES;
        let leaf = match lm.map.get(&page) {
            Some(&l) => l,
            None => {
                let l = lm.next;
                lm.map.insert(page, l);
                lm.next += 1;
                l
            }
        };
        leaf * (PAGE_BYTES / 64) + (paddr % PAGE_BYTES) / 64
    }

    /// The DRAM frame currently backing `paddr` (identity unless the
    /// RAS pipeline has retired its page).
    fn frame_addr(&self, paddr: u64) -> u64 {
        self.ras.as_ref().map_or(paddr, |r| r.translate(paddr))
    }

    /// Run to completion; returns the collected results.
    ///
    /// # Panics
    /// Panics on a fatal RAS error when `halt_on_due` is set, or when a
    /// snapshot capture fails — use [`try_run`](Self::try_run) to
    /// handle those as typed errors.
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run to completion, reporting a fatal RAS error (uncorrectable or
    /// retirement-degraded block under `halt_on_due`) or a failed
    /// snapshot capture as a typed error instead of panicking.
    ///
    /// # Errors
    /// [`RunError::Ras`] with the first [`RasError`] raised when
    /// [`RasConfig::halt_on_due`] is set; [`RunError::Snapshot`] when
    /// the attached sink cannot commit.
    pub fn try_run(mut self) -> Result<RunResult, RunError> {
        self.run_loop()?;
        Ok(self.finish_run())
    }

    /// Like [`run`](Self::run), but records every DRAM command issued
    /// during the run and returns the per-channel logs plus the last
    /// DRAM cycle, so an external protocol checker can validate the
    /// whole stack's command stream.
    pub fn run_logged(self) -> (RunResult, Vec<Vec<IssuedCommand>>, u64) {
        self.try_run_logged().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_logged`](Self::run_logged) with its failures reported as
    /// typed errors.
    ///
    /// # Errors
    /// As [`try_run`](Self::try_run).
    #[allow(clippy::type_complexity)]
    pub fn try_run_logged(mut self) -> Result<(RunResult, Vec<Vec<IssuedCommand>>, u64), RunError> {
        self.mem.enable_cmd_logs();
        self.run_loop()?;
        let logs = self.mem.take_cmd_logs();
        let end = self.cycle.saturating_sub(1) / CPU_PER_DRAM_CYCLE;
        Ok((self.finish_run(), logs, end))
    }

    /// Step until every core, the memory system and the drivers are
    /// done, or until a fatal RAS error or a failed capture stops the
    /// run.
    fn run_loop(&mut self) -> Result<(), RunError> {
        let ncores = self.cores.len();

        while !self.all_done() {
            if self.ras.as_ref().is_some_and(|r| r.fatal.is_some()) {
                break; // halt_on_due: stop issuing, report the error
            }

            // Durable checkpoint, always at the top of a DRAM-aligned
            // cycle so the captured state is exactly what a recovered
            // run resumes from. A pending fatal error never checkpoints
            // (the branch above broke out first).
            if self
                .snap
                .as_ref()
                .is_some_and(|s| s.due(self.cycle) && self.cycle.is_multiple_of(CPU_PER_DRAM_CYCLE))
            {
                let mut sink = self.snap.take().expect("checked above");
                let captured = sink.capture(self.cycle, &*self);
                self.snap = Some(sink);
                captured.map_err(RunError::Snapshot)?;
            }

            // Memory ticks at the DRAM clock.
            if self.cycle.is_multiple_of(CPU_PER_DRAM_CYCLE) {
                let dram_now = self.cycle / CPU_PER_DRAM_CYCLE;
                self.ras_tick(dram_now);
                self.drain_pending_meta(dram_now);
                self.mem.tick(dram_now);
                // A read's completion is pushed when its CAS issues, so
                // its ROB entry is marked done here, tCAS + tBURST before
                // `Completion::finish` (DESIGN.md §6).
                let mut buf = std::mem::take(&mut self.comp_buf);
                buf.clear();
                self.mem.drain_completions_into(&mut buf);
                for c in &buf {
                    if let Some(tag) = self.tags.remove(&c.id) {
                        self.parked[tag.core] = false;
                        if let Some(p) = self.cores[tag.core]
                            .reads
                            .iter_mut()
                            .find(|p| p.rob_pos == tag.rob_pos)
                        {
                            p.done = true;
                        }
                    }
                }
                self.comp_buf = buf;
            }

            self.churn_tick();

            for core_idx in 0..ncores {
                if self.parked[core_idx] {
                    continue;
                }
                self.retire(core_idx);
                self.fetch(core_idx);
                if self.fast_paths {
                    self.maybe_park(core_idx);
                }
            }

            if self.fast_paths {
                self.try_bulk_advance();
            }
            self.cycle += 1;
        }
        match self.ras.as_mut().and_then(|r| r.fatal.take()) {
            Some(e) => Err(RunError::Ras(e)),
            None => Ok(()),
        }
    }

    /// Park a core whose retire/fetch are provably no-ops until a read
    /// completion arrives. Two cases:
    ///
    /// * the core is [`done`](Core::done) — nothing is left to do
    ///   until the churn driver reloads the slot with its next session
    ///   (which unparks it), so for a static workload never again;
    /// * the ROB head is an outstanding read (blocks retirement) and
    ///   fetch cannot add work either (ROB full, or the trace is
    ///   drained). The head read's completion is then the only event
    ///   that can change this core's state, and its delivery unparks.
    ///
    /// Skipping the calls is pure: it elides work that would not have
    /// mutated anything, so cycle-level behavior is bit-identical.
    fn maybe_park(&mut self, ci: usize) {
        let core = &self.cores[ci];
        self.parked[ci] = core.done()
            || (core.blocked_write.is_none()
                && (core.trace_done() || core.rob_occupancy() >= ROB_SIZE)
                && core
                    .reads
                    .front()
                    .is_some_and(|f| f.rob_pos == core.retired && !f.done));
    }

    /// One CPU-cycle step of the enclave lifecycle: fire page-free
    /// events whose records have issued, tear down sessions whose
    /// traces drained, and admit arrivals whose clocks have passed.
    /// All resulting metadata traffic joins the pending queue.
    fn churn_tick(&mut self) {
        let Some(mut ch) = self.churn.take() else {
            return;
        };
        for s in 0..self.cores.len() {
            if ch.live[s] {
                while ch.frees[s]
                    .front()
                    .is_some_and(|f| f.after_record < self.cores[s].pos)
                {
                    let f = ch.frees[s].pop_front().expect("checked front");
                    let traffic = ch.free_page(s, f.vaddr, &mut self.engine);
                    self.queue_meta(&traffic);
                }
                if self.cores[s].done() {
                    let traffic = ch.session_end(s, &mut self.engine);
                    self.queue_meta(&traffic);
                }
            }
            if !ch.live[s] && self.cycle >= ch.ready_at[s] {
                if let Some((trace, traffic)) = ch.create(s, self.cycle, &mut self.engine) {
                    self.queue_meta(&traffic);
                    self.cores[s].reload(trace);
                    self.parked[s] = false;
                }
            }
        }
        self.churn = Some(ch);
    }

    /// One DRAM-cycle step of the RAS pipeline: execute deferred page
    /// retirements, then advance the fault process and issue the patrol
    /// reads due this cycle. Issuance stops once every core has
    /// finished so the run can drain.
    fn ras_tick(&mut self, dram_now: u64) {
        let Some(mut ras) = self.ras.take() else {
            return;
        };
        for page in std::mem::take(&mut ras.pending_retires) {
            self.do_retire(&mut ras, page);
        }
        if !self.cores.iter().all(Core::done) {
            for addr in ras.tick(dram_now) {
                ras.stats.patrol_reads += 1;
                self.pending_meta.push_back((addr, false));
                let check = ras.check_read(addr, self.mem.decoder(), dram_now);
                self.apply_check(&mut ras, addr, check);
            }
        }
        self.ras = Some(ras);
    }

    /// RAS hook on a demand access: record the block's metadata
    /// location, register it with the fault process, and (for reads)
    /// check it against the live fault state.
    fn ras_on_demand(&mut self, ci: usize, paddr: u64, daddr: u64, eb: u64, is_write: bool) {
        let Some(mut ras) = self.ras.take() else {
            return;
        };
        let loc = self.engine.locate(ci, paddr, eb);
        self.ras_loc.insert(daddr & !63, loc);
        ras.on_data_access(daddr, is_write);
        if !is_write {
            let dram_now = self.cycle / CPU_PER_DRAM_CYCLE;
            let check = ras.check_read(daddr, self.mem.decoder(), dram_now);
            self.apply_check(&mut ras, daddr, check);
        }
        self.ras = Some(ras);
    }

    /// Turn a read-check outcome into recovery traffic: the parity
    /// fetch, the cross-rank companion reads (shared parity), and —
    /// when correction succeeded — the corrected-data writeback
    /// (demand scrub). A failed reconstruction still pays for the
    /// attempt; it just has nothing to write back.
    fn apply_check(&mut self, ras: &mut RasEngine, addr: u64, check: ReadCheck) {
        match check {
            ReadCheck::Corrected { companions } => {
                self.queue_recovery(ras, addr, &companions);
                ras.stats.scrub_writebacks += 1;
                self.pending_meta.push_back((addr, true));
            }
            ReadCheck::Due { companions } => {
                self.queue_recovery(ras, addr, &companions);
            }
            ReadCheck::Clean
            | ReadCheck::Benign
            | ReadCheck::Silent
            | ReadCheck::DetectedOnly
            | ReadCheck::Degraded => {}
        }
    }

    fn queue_recovery(&mut self, ras: &mut RasEngine, addr: u64, companions: &[u64]) {
        if let Some(line) = self.parity_line_for(addr) {
            ras.stats.parity_reads += 1;
            self.pending_meta.push_back((line, false));
        }
        for &c in companions {
            ras.stats.companion_reads += 1;
            self.pending_meta.push_back((c, false));
        }
    }

    /// The DRAM line holding the recovery parity covering `addr`, per
    /// the configured scheme's metadata layout.
    fn parity_line_for(&self, addr: u64) -> Option<u64> {
        let block = addr & !63;
        let (part, rblock) = self.ras_loc.get(&block).copied().unwrap_or((0, block / 64));
        self.engine.recovery_parity_addr(part, rblock)
    }

    /// Execute one page retirement: emit the migration traffic, remap
    /// the page's leaf id (a fresh id, exercising the indirection
    /// layer), update metadata locations for the moved blocks, and
    /// rebuild or degrade parity groups that span the page boundary.
    fn do_retire(&mut self, ras: &mut RasEngine, page: u64) {
        let (orig, moves, affected) = ras.retire_page(page);
        for &(old, new) in &moves {
            ras.stats.migration_reads += 1;
            ras.stats.migration_writes += 1;
            self.pending_meta.push_back((old, false));
            self.pending_meta.push_back((new, true));
        }

        // The indirection layer assigns the page a fresh leaf id so the
        // per-enclave metadata follows the migrated data.
        let mut remap = None;
        for (ci, lm) in self.leaf_maps.iter_mut().enumerate() {
            if let Some(leaf) = lm.map.get_mut(&orig) {
                *leaf = lm.next;
                remap = Some((ci, lm.next));
                lm.next += 1;
                break;
            }
        }
        let bpp = PAGE_BYTES / 64; // blocks per page
        for &(old, new) in &moves {
            let off = (old % PAGE_BYTES) / 64;
            let prev = self.ras_loc.remove(&old);
            let loc = if self.isolated {
                match remap {
                    Some((ci, leaf)) => (ci, leaf * bpp + off),
                    None => match prev {
                        Some(l) => l,
                        None => continue,
                    },
                }
            } else {
                (0, orig * bpp + off)
            };
            self.ras_loc.insert(new, loc);
        }

        for gid in affected {
            if ras.cfg.rebuild_parity_on_retire {
                let members = ras.group_members_outside(gid, page);
                let line = members.first().and_then(|&m| self.parity_line_for(m));
                for m in members {
                    ras.stats.parity_rebuild_reads += 1;
                    self.pending_meta.push_back((m, false));
                }
                if let Some(line) = line {
                    ras.stats.parity_rebuild_writes += 1;
                    self.pending_meta.push_back((line, true));
                }
            } else {
                ras.break_group(gid);
            }
        }
    }

    fn all_done(&self) -> bool {
        self.mem.is_idle()
            && self.pending_meta.is_empty()
            && self.cores.iter().all(Core::done)
            && self.churn.as_deref().is_none_or(ChurnDriver::done)
    }

    /// Issue queued metadata / writeback transactions as space frees up.
    fn drain_pending_meta(&mut self, dram_now: u64) {
        while let Some(&(addr, is_write)) = self.pending_meta.front() {
            let ok = if is_write {
                self.mem.enqueue_write(addr, dram_now).is_ok()
            } else {
                self.mem.enqueue_read(addr, dram_now).is_ok()
            };
            if ok {
                self.pending_meta.pop_front();
            } else {
                break;
            }
        }
    }

    fn queue_meta(&mut self, mem_list: &[MetaAccess]) {
        for m in mem_list {
            self.pending_meta.push_back((m.addr, m.is_write));
        }
    }

    /// Retire up to `WIDTH` instructions from the ROB head.
    fn retire(&mut self, ci: usize) {
        let dram_now = self.cycle / CPU_PER_DRAM_CYCLE;
        // A write blocked on a full write queue stalls retirement.
        if let Some(addr) = self.cores[ci].blocked_write {
            if self.mem.enqueue_write(addr, dram_now).is_ok() {
                self.cores[ci].blocked_write = None;
            } else {
                return;
            }
        }
        let core = &mut self.cores[ci];
        let mut budget = WIDTH;
        while budget > 0 && core.retired < core.fetched {
            if let Some(front) = core.reads.front() {
                if front.rob_pos == core.retired {
                    if front.done {
                        core.reads.pop_front();
                        core.retired += 1;
                        budget -= 1;
                        continue;
                    }
                    break; // read at head still outstanding
                }
                let plain = (front.rob_pos - core.retired).min(budget);
                core.retired += plain;
                budget -= plain;
            } else {
                let plain = (core.fetched - core.retired).min(budget);
                core.retired += plain;
                budget -= plain;
            }
        }
        if core.done() && core.finish.is_none() {
            core.finish = Some(self.cycle);
        }
    }

    /// Fetch up to `WIDTH` instructions into the ROB; memory ops issue
    /// their DRAM and metadata traffic here (reads) or at retire
    /// (writes, via `blocked_write` when the queue is full).
    fn fetch(&mut self, ci: usize) {
        if self.cores[ci].stall_until > self.cycle {
            return;
        }
        // The leaf maps and churn driver step aside so fetch can borrow
        // the rest of the system mutably; retirement remaps run at DRAM
        // ticks, never inside fetch, so this window is safe. Each take
        // moves a pointer-sized handle (the `Vec`, the `Box`), never
        // the state itself.
        let mut lms = std::mem::take(&mut self.leaf_maps);
        let mut ch = self.churn.take();
        self.fetch_with(ci, &mut lms[ci], ch.as_deref_mut());
        self.churn = ch;
        self.leaf_maps = lms;
    }

    fn fetch_with(&mut self, ci: usize, lm: &mut LeafMap, mut ch: Option<&mut ChurnDriver>) {
        let dram_now = self.cycle / CPU_PER_DRAM_CYCLE;
        let mut budget = WIDTH;
        while budget > 0 {
            let core = &mut self.cores[ci];
            if core.trace_done() || core.rob_occupancy() >= ROB_SIZE {
                break;
            }
            if core.gap_left > 0 {
                let take = core
                    .gap_left
                    .min(budget)
                    .min(ROB_SIZE - core.rob_occupancy());
                core.fetched += take;
                core.gap_left -= take;
                budget -= take;
                continue;
            }
            if core.op_issued {
                core.advance_record();
                continue;
            }
            // Fetch the record's memory operation (one ROB slot). The
            // engine sees the original physical address (metadata is
            // keyed by it); DRAM sees the frame currently backing it.
            // Churn traces carry *virtual* addresses, translated here
            // lazily — pages can be freed and re-touched mid-session,
            // so translations cannot be precomputed.
            let rec = core.trace[core.pos];
            let is_write = rec.op == MemOp::Write;
            let (paddr, eb) = match ch.as_deref_mut() {
                Some(d) => {
                    let (paddr, eb, lifecycle) =
                        d.on_access(ci, rec.paddr, is_write, &mut self.engine);
                    self.queue_meta(&lifecycle);
                    (paddr, eb)
                }
                None => (rec.paddr, Self::enclave_block(lm, rec.paddr)),
            };
            let daddr = self.frame_addr(paddr);
            let core = &mut self.cores[ci];
            if is_write {
                // Writes retire into the write queue; metadata issues now.
                core.fetched += 1;
                core.op_issued = true;
                budget -= 1;
                let ok = self.mem.enqueue_write(daddr, dram_now).is_ok();
                if !ok {
                    self.cores[ci].blocked_write = Some(daddr);
                }
                let out = self.engine.on_access(ci, paddr, eb, true);
                if out.stall_cycles > 0 {
                    self.cores[ci].stall_until = self.cycle + out.stall_cycles;
                }
                self.queue_meta(&out.mem);
                self.ras_on_demand(ci, paddr, daddr, eb, true);
                if self.cores[ci].blocked_write.is_some() {
                    break; // can't run ahead past a blocked write
                }
            } else {
                // Reads need queue space at fetch.
                match self.mem.enqueue_read(daddr, dram_now) {
                    Ok(id) => {
                        let rob_pos = core.fetched;
                        core.fetched += 1;
                        core.op_issued = true;
                        budget -= 1;
                        core.reads.push_back(PendingRead {
                            rob_pos,
                            done: false,
                        });
                        self.tags.insert(id, ReqTag { core: ci, rob_pos });
                        let out = self.engine.on_access(ci, paddr, eb, false);
                        if out.stall_cycles > 0 {
                            self.cores[ci].stall_until = self.cycle + out.stall_cycles;
                        }
                        self.queue_meta(&out.mem);
                        self.ras_on_demand(ci, paddr, daddr, eb, false);
                    }
                    Err(_) => break, // fetch stalls on a full read queue
                }
            }
        }
    }

    /// Closed-form multi-cycle advance for *linear* core phases: every
    /// core is either frozen (parked, done) or provably repeats the
    /// exact same full-width step — fetching gap instructions and/or
    /// retiring plain instructions — for the next `j` cycles. Those
    /// cycles are applied arithmetically in one shot.
    ///
    /// Exactness argument, per linear case (retire runs before fetch
    /// each cycle, both at `WIDTH` per cycle):
    ///
    /// * gap flow (no reads, occupancy >= width, gap >= width): retire
    ///   takes `WIDTH`, fetch refills `WIDTH`; occupancy is invariant,
    ///   so every cycle is identical while the gap lasts;
    /// * approach (oldest read still behind the ROB head): plain
    ///   instructions retire at `WIDTH` until `retired` reaches the
    ///   read's slot — the window stops exactly there;
    /// * fill (undone read at the ROB head): retirement is frozen;
    ///   fetch adds `WIDTH` gap instructions until the ROB fills;
    /// * drain (trace done, no reads): retire `WIDTH` per cycle,
    ///   stopping one instruction short of empty so the `finish`
    ///   stamp is taken by the normal per-cycle path.
    ///
    /// The window is clipped below the next memory event, so no
    /// completion, queue-space change, or refresh can land inside it,
    /// and nothing is enqueued during it (only gap instructions are
    /// fetched) — DRAM ticks inside the window are no-ops by the
    /// channel contract. With no request queued that event is the next
    /// refresh, so the same window covers idle memory. It is clipped
    /// below the drivers' next wake-up too
    /// ([`driver_wake`](Self::driver_wake)): no fault arrival, drill,
    /// patrol read, bucket leak, page retirement, page free, session
    /// end, admission or snapshot capture lands inside it. The window
    /// only fetches gap instructions, so it never advances a record
    /// (the trigger for a page free) and stops short of a core
    /// finishing (the trigger for a session end). Anything nonlinear (a
    /// memory op due, a stall deadline, a blocked write, a record
    /// advance, a completed head read) zeroes the window and falls back
    /// to per-cycle stepping.
    fn try_bulk_advance(&mut self) {
        // Queued metadata may wait out the window only while its head
        // is refused: the queue space it needs frees no earlier than
        // the next memory event. A finished run must not jump: the loop
        // stops at the cycle it sees `all_done`.
        if self.pending_meta_admissible() || self.all_done() {
            return;
        }
        let Some(wake) = self.driver_wake() else {
            return;
        };
        let now = self.cycle;
        let w = WIDTH;
        // Cycles strictly inside the window must precede the next
        // memory event (completions / queue space / refresh) and the
        // drivers' wake-up.
        let ev_cpu = self.dram_event_cpu(self.mem.next_event()).min(wake);
        let mut j = (ev_cpu - now).saturating_sub(1);
        for (ci, c) in self.cores.iter().enumerate() {
            if j == 0 {
                return;
            }
            if self.parked[ci] || c.done() {
                continue; // frozen until a completion (bounded by ev_cpu)
            }
            if c.blocked_write.is_some() || c.stall_until > now || c.op_issued {
                return; // nonlinear now: step per-cycle
            }
            let o = c.fetched - c.retired;
            let jc = match c.reads.front() {
                None => {
                    if c.trace_done() {
                        // Pure drain; stop short of the finish edge.
                        if o > w {
                            (o - 1) / w
                        } else {
                            0
                        }
                    } else if c.gap_left >= w && o >= w {
                        c.gap_left / w
                    } else {
                        0
                    }
                }
                Some(f) if f.done => 0,
                Some(f) if f.rob_pos > c.retired => {
                    let to_block = (f.rob_pos - c.retired) / w;
                    if c.trace_done() {
                        to_block
                    } else if c.gap_left >= w {
                        to_block.min(c.gap_left / w)
                    } else {
                        0
                    }
                }
                Some(_) => {
                    // Undone head read: retirement frozen.
                    let space = ROB_SIZE - o;
                    if c.trace_done() || space == 0 {
                        u64::MAX // fully frozen until its completion
                    } else if c.gap_left >= w && space >= w {
                        (space / w).min(c.gap_left / w)
                    } else {
                        0
                    }
                }
            };
            j = j.min(jc);
        }
        if j == 0 {
            return;
        }
        for (ci, c) in self.cores.iter_mut().enumerate() {
            if self.parked[ci] || c.done() {
                continue;
            }
            let insts = j * w;
            match c.reads.front() {
                None => {
                    if c.trace_done() {
                        c.retired += insts;
                    } else {
                        c.fetched += insts;
                        c.retired += insts;
                        c.gap_left -= insts;
                    }
                }
                Some(f) if f.rob_pos > c.retired => {
                    c.retired += insts;
                    if !c.trace_done() {
                        c.fetched += insts;
                        c.gap_left -= insts;
                    }
                }
                Some(_) => {
                    if !c.trace_done() && ROB_SIZE > c.fetched - c.retired {
                        c.fetched += insts;
                        c.gap_left -= insts;
                    }
                }
            }
        }
        self.cycle = now + j;
    }

    /// Would memory accept the head of the pending metadata queue now?
    fn pending_meta_admissible(&self) -> bool {
        self.pending_meta.front().is_some_and(|&(addr, is_write)| {
            if is_write {
                self.mem.can_accept_write(addr)
            } else {
                self.mem.can_accept_read(addr)
            }
        })
    }

    /// The CPU cycle at which a memory-system wake-up `ev` (a DRAM
    /// cycle) can first be observed: the next DRAM tick at the earliest.
    fn dram_event_cpu(&self, ev: u64) -> u64 {
        ev.max(self.cycle / CPU_PER_DRAM_CYCLE + 1)
            .saturating_mul(CPU_PER_DRAM_CYCLE)
    }

    /// The earliest CPU cycle at which the RAS pipeline, the churn
    /// driver or the snapshot sink next needs the clock (`u64::MAX` for
    /// never), or `None` when one of them acts at the very next step: a
    /// pending page retirement, a fireable page free, a drained live
    /// session, or an admission that is due (or retrying). Bounds the
    /// window of [`try_bulk_advance`](Self::try_bulk_advance), the
    /// run loop's one clock jump.
    fn driver_wake(&self) -> Option<u64> {
        let mut wake = u64::MAX;
        if let Some(ras) = &self.ras {
            if !ras.pending_retires.is_empty() {
                return None; // retirements execute at the next DRAM tick
            }
            // The fault process and scrubber sleep once every core is
            // done (`ras_tick`); only a churn admission wakes a core.
            if !self.cores.iter().all(Core::done) {
                wake = self.dram_event_cpu(ras.next_event());
            }
        }
        if let Some(sink) = &self.snap {
            // Captures happen on DRAM-aligned cycles only.
            wake = wake.min(sink.next_due().next_multiple_of(CPU_PER_DRAM_CYCLE));
        }
        if let Some(ch) = &self.churn {
            let acts_now = self.cores.iter().enumerate().any(|(s, c)| {
                ch.live[s]
                    && (c.done() || ch.frees[s].front().is_some_and(|f| f.after_record < c.pos))
            });
            let ready = ch.next_ready().unwrap_or(u64::MAX);
            if acts_now || ready <= self.cycle {
                return None;
            }
            wake = wake.min(ready);
        }
        Some(wake)
    }

    /// Serialize the complete simulation state — clock, DRAM, engine,
    /// cores, in-flight bookkeeping, RAS fault process, and churn
    /// driver — for a crash-recovery checkpoint. Core traces are stored
    /// verbatim for churn runs (sessions swap traces at admission);
    /// static traces are construction inputs and only length-checked.
    ///
    /// Hand-written, like its `Persist::load`: which optional layers
    /// are present, the core count and static trace lengths are checked
    /// against the constructed system.
    ///
    /// # Panics
    /// Panics if DRAM command logging is enabled (logs are unbounded
    /// diagnostic state, not checkpointable) or a fatal RAS error is
    /// pending.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.section("SYST", 2);
        w.put(&self.cycle);
        w.put(&(self.ras.is_some(), self.churn.is_some()));
        w.put(&self.mem);
        w.put(&self.engine);
        if let Some(churn) = self.churn.as_deref() {
            w.put(churn);
        }
        if let Some(ras) = self.ras.as_deref() {
            w.put(ras);
        }
        w.put(&self.cores.len());
        for c in &self.cores {
            if self.churn.is_some() {
                w.put(&c.trace);
            } else {
                w.put(&c.trace.len());
            }
            w.put(c);
        }
        w.put(&self.tags);
        w.put(&self.pending_meta);
        w.put(&self.leaf_maps);
        w.put(&self.ras_loc);
    }

    fn finish_run(mut self) -> RunResult {
        // Drain dirty metadata state so its write traffic is accounted.
        let leftovers = self.engine.drain();
        let extra_writes = leftovers.len() as u64;

        let ras = match self.ras.as_mut() {
            Some(r) => {
                r.finalize_stats();
                r.stats.clone()
            }
            None => RasStats::default(),
        };

        let churn = self
            .churn
            .as_deref()
            .map_or_else(Default::default, ChurnDriver::stats);

        let finishes: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.finish.unwrap_or(self.cycle))
            .collect();
        RunResult::collect(
            self.cycle,
            finishes,
            &self.engine,
            &self.mem,
            extra_writes,
            ras,
            churn,
        )
    }
}

/// A system's snapshot: [`System::save_state`]'s bytes.
impl Persist for System {
    fn save(&self, w: &mut SnapWriter) {
        self.save_state(w);
    }

    /// Restore from [`System::save_state`] bytes into a system freshly
    /// built with the same configuration and workload. After this the
    /// run continues deterministically from the captured cycle.
    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        let shape_error = |what, at| Err(SnapError::Corrupt { what, at });
        r.section("SYST", 2)?;
        self.cycle.load(r, "system cycle")?;
        let at = r.pos();
        if r.get::<(bool, bool)>("system shape")? != (self.ras.is_some(), self.churn.is_some()) {
            return shape_error("system shape (snapshot from a different configuration)", at);
        }
        self.mem.load(r, "memory system")?;
        self.engine.load(r, "security engine")?;
        if let Some(churn) = &mut self.churn {
            churn.load(r, "churn driver")?;
        }
        if let Some(ras) = &mut self.ras {
            ras.load(r, "ras engine")?;
        }
        let at = r.pos();
        if r.get::<usize>("system cores")? != self.cores.len() {
            return shape_error("core count (snapshot from a different configuration)", at);
        }
        for c in &mut self.cores {
            let at = r.pos();
            if self.churn.is_some() {
                c.trace.load(r, "core trace")?;
            } else if r.get::<usize>("trace length")? != c.trace.len() {
                return shape_error("trace length (snapshot from a different workload)", at);
            }
            c.load(r, "core")?;
        }
        let at = r.pos();
        self.tags.load(r, "request tags")?;
        if self.tags.values().any(|t| t.core >= self.cores.len()) {
            return shape_error("tag core index", at);
        }
        self.pending_meta.load(r, "pending metadata")?;
        r.load_exact(&mut self.leaf_maps, "leaf-map count")?;
        self.ras_loc.load(r, "ras locations")?;
        // Parking only elides no-op steps, so a restored run starts with
        // every core unparked and re-parks at its first step.
        self.parked.fill(false);
        self.comp_buf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_core::Scheme;
    use itesp_trace::benchmark;

    fn run(scheme: Scheme, ops: usize) -> RunResult {
        let mp = MultiProgram::homogeneous(benchmark("mcf").unwrap(), 2, ops, 7);
        let engine = EngineConfig {
            enclaves: 2,
            ..EngineConfig::paper_default(scheme)
        };
        let cfg = SystemConfig::table_iii(DramConfig::table_iii(), engine);
        System::new(cfg, &mp).run()
    }

    #[test]
    fn unsecure_run_completes() {
        let r = run(Scheme::Unsecure, 500);
        assert!(r.cycles > 0);
        assert_eq!(r.engine.data_accesses(), 1000);
        assert_eq!(r.engine.meta_accesses(), 0);
    }

    #[test]
    fn secure_schemes_are_slower_than_unsecure() {
        let base = run(Scheme::Unsecure, 1500);
        let vault = run(Scheme::Vault, 1500);
        assert!(
            vault.cycles > base.cycles,
            "vault {} vs unsecure {}",
            vault.cycles,
            base.cycles
        );
    }

    #[test]
    fn itesp_beats_synergy() {
        let syn = run(Scheme::Synergy, 1500);
        let itesp = run(Scheme::Itesp, 1500);
        assert!(
            itesp.cycles < syn.cycles,
            "itesp {} vs synergy {}",
            itesp.cycles,
            syn.cycles
        );
    }

    #[test]
    fn metadata_traffic_reaches_dram() {
        let r = run(Scheme::Vault, 500);
        let dram_total = r.dram.reads + r.dram.writes;
        assert!(
            dram_total > r.engine.data_accesses(),
            "metadata must add DRAM traffic: {dram_total}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run(Scheme::Itesp, 400);
        let b = run(Scheme::Itesp, 400);
        assert_eq!(a.cycles, b.cycles);
    }
}
