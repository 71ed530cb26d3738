//! One memory channel: read/write queues, FR-FCFS scheduling with write
//! drain, refresh, and the shared data bus.
//!
//! The scheduler issues at most one command per DRAM cycle (command-bus
//! limit). Reads are prioritized; writes drain in batches between a
//! high and a low watermark, as in USIMM's baseline scheduler.
//!
//! # Performance structure
//!
//! This is the optimized hot path; `ReferenceChannel` (in the
//! `itesp-oracle` test-support crate) is the straight-line executable
//! specification it must match command-for-command (checked by the
//! `scheduler_equivalence` property test there). Four mechanisms make it fast without changing behavior:
//!
//! * **Per-bank indexed queues** ([`RequestQueue`]): requests live in a
//!   reusable slab, stamped with a monotonically increasing sequence
//!   number (global age) and indexed per bank (oldest-first). Removal
//!   is an ordered unlink and a slab free, not a `Vec` shift.
//! * **Per-bank candidates** ([`Candidates`]): each queue keeps, per
//!   bank, its oldest request (owner of the PRE/ACT decision) and its
//!   oldest request to the open row (the CAS candidate), updated only
//!   on push/remove, ACT/PRE, refresh and restore. Ties across banks
//!   resolve by sequence number, reproducing the reference scheduler's
//!   full age-order scan (including its quadratic "does an older
//!   request still want this open row" rescan).
//! * **Bank sets** ([`BankSet`]): on the same events each queue files
//!   every bank with pending requests in a hit set (it has a row-hit
//!   candidate) and a row set (its oldest request needs a PRE or ACT).
//!   A sweep visits only the banks that could issue: the CAS pass walks
//!   the hit set, or only the last burst's rank while the bus
//!   turnaround rules the others out, or nothing while the data bus
//!   rules out every CAS; the PRE/ACT pass walks the row set, and only
//!   when no CAS can issue.
//! * **Next-event skipping**: whenever a tick issues nothing, the
//!   channel computes a lower bound on the next cycle at which *any*
//!   command could issue (earliest CAS/PRE/ACT per visited bank, the
//!   data bus's own bound for the banks the sweep skipped, the next
//!   refresh deadline, and the next write-drain flag flip) and
//!   early-returns from `tick` until then. Channel state is frozen
//!   between events, so the skipped ticks are provably no-ops and the
//!   command stream is identical to ticking every cycle.

use crate::bank::{BankState, RankState};
use crate::command::{ChannelStats, Command, Completion, IssuedCommand, Request};
use crate::config::{DramConfig, DramTiming};
use itesp_snap::{Persist, SnapError, SnapReader, SnapWriter};

/// State of the shared data bus: last burst's rank and end time.
#[derive(Debug, Clone, Copy, Default, Persist)]
struct DataBus {
    free_at: u64,
    last_rank: Option<u32>,
}

/// One occupied or free slab entry.
#[derive(Debug, Clone, Copy)]
struct Slot {
    req: Request,
    live: bool,
}

/// One per-bank index entry: a request's slab slot, row and age.
#[derive(Debug, Clone, Copy, Default)]
struct BankEntry {
    slot: u32,
    row: u32,
    seq: u64,
}

/// A bank's scheduling candidates in one queue, kept current on every
/// event that can change them so the sweep reads them in O(1): the
/// bank's oldest pending entry (owns the PRE/ACT decision) and its
/// oldest entry to the bank's open row (the CAS candidate), as
/// `(seq, slot)`. Meaningful only while the bank is active.
#[derive(Debug, Clone, Copy, Default)]
struct Candidates {
    head: BankEntry,
    hit: Option<(u64, u32)>,
}

/// A set of bank indexes, one bit per bank of the channel, so it grows
/// with the geometry.
#[derive(Debug)]
struct BankSet {
    words: Vec<u64>,
    len: usize,
}

impl BankSet {
    fn new(nbanks: usize) -> Self {
        BankSet {
            words: vec![0; nbanks.div_ceil(64)],
            len: 0,
        }
    }

    fn contains(&self, b: usize) -> bool {
        self.words[b / 64] >> (b % 64) & 1 != 0
    }

    /// Add `b` if `member`, remove it otherwise.
    fn set(&mut self, b: usize, member: bool) {
        if self.contains(b) != member {
            self.words[b / 64] ^= 1 << (b % 64);
            if member {
                self.len += 1;
            } else {
                self.len -= 1;
            }
        }
    }

    /// The members in `lo..hi`, ascending.
    fn range(&self, lo: usize, hi: usize) -> Members<'_> {
        let mut m = Members {
            words: &self.words,
            w: lo / 64,
            cur: 0,
            hi,
        };
        if lo < hi {
            m.cur = m.below_hi() & (!0 << (lo % 64));
        }
        m
    }

    /// Every member, ascending.
    fn iter(&self) -> Members<'_> {
        self.range(0, self.words.len() * 64)
    }
}

/// Iterator over the members of a [`BankSet`] below `hi`: `cur` holds
/// the not-yet-returned bits of word `w`.
struct Members<'a> {
    words: &'a [u64],
    w: usize,
    cur: u64,
    hi: usize,
}

impl Members<'_> {
    /// Word `w` with the bits at `hi` and above cleared.
    fn below_hi(&self) -> u64 {
        let base = self.w * 64;
        let bits = self.words[self.w];
        if self.hi < base + 64 {
            bits & ((1 << (self.hi - base)) - 1)
        } else {
            bits
        }
    }
}

impl Iterator for Members<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            if (self.w + 1) * 64 >= self.hi {
                return None;
            }
            self.w += 1;
            self.cur = self.below_hi();
        }
        let b = self.w * 64 + self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(b)
    }
}

/// Age-ordered request storage with per-bank index lists.
///
/// Requests sit in a slab (`slots` + `free`), stamped with a strictly
/// increasing sequence number (global age); `by_bank` keeps an
/// oldest-first [`BankEntry`] list per bank, and `cand` the bank's
/// [`Candidates`]. Every method that can move a candidate takes the
/// bank's open row, which lives on the channel, and re-files the bank
/// in two [`BankSet`]s that together hold every bank with pending
/// requests: `hit_banks` (the bank has a row-hit candidate, so it may
/// issue a CAS) and `row_banks` (its oldest request misses the open
/// row or the bank is closed, so it may issue a PRE or ACT). A bank can
/// be in both: a younger request hits the row an older one conflicts
/// with.
#[derive(Debug)]
struct RequestQueue {
    slots: Vec<Slot>,
    free: Vec<u32>,
    by_bank: Vec<Vec<BankEntry>>,
    cand: Vec<Candidates>,
    hit_banks: BankSet,
    row_banks: BankSet,
    len: usize,
    cap: usize,
    next_seq: u64,
}

impl RequestQueue {
    fn new(cap: usize, nbanks: usize) -> Self {
        RequestQueue {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            by_bank: vec![Vec::new(); nbanks],
            cand: vec![Candidates::default(); nbanks],
            hit_banks: BankSet::new(nbanks),
            row_banks: BankSet::new(nbanks),
            len: 0,
            cap,
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn has_space(&self) -> bool {
        self.len < self.cap
    }

    /// Append a request (its `bank_index` must already be set) to a bank
    /// whose open row is `open`. Returns `false` if the queue is at
    /// capacity.
    fn push(&mut self, req: Request, open: Option<u32>) -> bool {
        if self.len >= self.cap {
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Slot { req, live: true };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = entry;
                s
            }
            None => {
                self.slots.push(entry);
                (self.slots.len() - 1) as u32
            }
        };
        let b = req.bank_index as usize;
        let e = BankEntry {
            slot,
            row: req.coords.row,
            seq,
        };
        let c = &mut self.cand[b];
        if self.by_bank[b].is_empty() {
            *c = Candidates { head: e, hit: None };
        }
        // The newest entry is the bank's row hit only if none is older.
        if c.hit.is_none() && open == Some(e.row) {
            c.hit = Some((seq, slot));
        }
        self.by_bank[b].push(e);
        self.file(b, open);
        self.len += 1;
        true
    }

    /// Ordered removal from a bank whose open row is `open`: frees the
    /// slab slot and unlinks the bank list entry (order-preserving, so
    /// bank lists stay oldest-first).
    fn remove(&mut self, slot: u32, open: Option<u32>) {
        let s = &mut self.slots[slot as usize];
        debug_assert!(s.live);
        s.live = false;
        let b = s.req.bank_index as usize;
        let list = &mut self.by_bank[b];
        let pos = list
            .iter()
            .position(|e| e.slot == slot)
            .expect("slot present in its bank list");
        list.remove(pos);
        if let Some(&head) = list.first() {
            let c = &mut self.cand[b];
            c.head = head;
            if c.hit.is_some_and(|(_, s)| s == slot) {
                // Entries ahead of the old hit miss the open row.
                c.hit = first_hit(&list[pos..], open);
            }
        }
        self.file(b, open);
        self.free.push(slot);
        self.len -= 1;
    }

    /// The bank's open row changed to `open` (ACT, PRE or refresh):
    /// re-find its oldest row hit.
    fn set_open(&mut self, bank: usize, open: Option<u32>) {
        self.cand[bank].hit = first_hit(&self.by_bank[bank], open);
        self.file(bank, open);
    }

    /// Re-file bank `b`, whose open row is `open`, in the hit and row
    /// sets from its current candidates.
    fn file(&mut self, b: usize, open: Option<u32>) {
        let active = !self.by_bank[b].is_empty();
        let c = self.cand[b];
        self.hit_banks.set(b, active && c.hit.is_some());
        self.row_banks.set(b, active && open != Some(c.head.row));
    }

    /// Debug check: both bank sets match a re-derivation from the bank
    /// lists and the banks' open rows.
    fn sets_match(&self, banks: &[BankState]) -> bool {
        banks
            .iter()
            .zip(&self.by_bank)
            .enumerate()
            .all(|(b, (bank, list))| {
                let hit = first_hit(list, bank.open_row).is_some();
                let row = list.first().is_some_and(|e| bank.open_row != Some(e.row));
                self.hit_banks.contains(b) == hit && self.row_banks.contains(b) == row
            })
    }

    fn req(&self, slot: u32) -> &Request {
        &self.slots[slot as usize].req
    }

    fn req_mut(&mut self, slot: u32) -> &mut Request {
        &mut self.slots[slot as usize].req
    }

    /// Live requests in global age order, for snapshot serialization.
    /// Restore re-pushes them in this order into a fresh queue; absolute
    /// sequence numbers change but the scheduler only compares relative
    /// age, so behavior is identical (canonical restore).
    fn live_by_seq(&self) -> Vec<Request> {
        let mut entries: Vec<(u64, u32)> = self
            .by_bank
            .iter()
            .flat_map(|list| list.iter().map(|e| (e.seq, e.slot)))
            .collect();
        entries.sort_unstable_by_key(|&(seq, _)| seq);
        entries
            .into_iter()
            .map(|(_, slot)| self.slots[slot as usize].req)
            .collect()
    }
}

/// The oldest entry of an oldest-first bank list that targets `open`.
fn first_hit(list: &[BankEntry], open: Option<u32>) -> Option<(u64, u32)> {
    let open = open?;
    list.iter().find(|e| e.row == open).map(|e| (e.seq, e.slot))
}

/// A single DRAM channel with its controller queues.
#[derive(Debug)]
pub struct Channel {
    cfg: DramConfig,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    bus: DataBus,
    read_q: RequestQueue,
    write_q: RequestQueue,
    draining_writes: bool,
    stats: ChannelStats,
    completions: Vec<Completion>,
    cmd_log: Option<Vec<IssuedCommand>>,
    /// Lower bound on the next cycle at which any command can issue;
    /// `tick` is a no-op before it. Reset on enqueue.
    next_wake: u64,
    /// `log2(banks_per_rank)`: a bank index shifted right by this is
    /// its rank.
    rank_shift: u32,
    /// Earliest `next_refresh` over the ranks, so a tick with no
    /// refresh due never scans them.
    refresh_due: u64,
}

impl Channel {
    /// An idle channel: all banks closed, queues empty.
    ///
    /// # Panics
    /// Panics if `banks_per_rank` is not a power of two (a validated
    /// geometry always is).
    pub fn new(cfg: DramConfig) -> Self {
        let g = &cfg.geometry;
        let nbanks = (g.ranks_per_channel * g.banks_per_rank) as usize;
        let ranks: Vec<RankState> = (0..g.ranks_per_channel)
            .map(|r| RankState::new(&cfg.timing, u64::from(r)))
            .collect();
        let refresh_due = earliest_refresh(&ranks);
        Channel {
            cfg,
            banks: vec![BankState::default(); nbanks],
            ranks,
            bus: DataBus::default(),
            read_q: RequestQueue::new(cfg.queues.read_queue, nbanks),
            write_q: RequestQueue::new(cfg.queues.write_queue, nbanks),
            draining_writes: false,
            stats: ChannelStats::default(),
            completions: Vec::new(),
            cmd_log: None,
            next_wake: 0,
            rank_shift: g.bank_bits(),
            refresh_due,
        }
    }

    /// Start recording every issued command (including refreshes).
    pub fn enable_cmd_log(&mut self) {
        self.cmd_log = Some(Vec::new());
    }

    /// Drain the recorded command log.
    pub fn take_cmd_log(&mut self) -> Vec<IssuedCommand> {
        self.cmd_log.take().map_or_else(Vec::new, |log| {
            self.cmd_log = Some(Vec::new());
            log
        })
    }

    fn log_cmd(&mut self, cycle: u64, cmd: Command, rank: u32, bank: u32, row: u32) {
        if let Some(log) = &mut self.cmd_log {
            log.push(IssuedCommand {
                cycle,
                cmd,
                rank,
                bank,
                row,
            });
        }
    }

    /// The configuration this channel was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// True if the read queue can accept another request.
    pub fn read_queue_has_space(&self) -> bool {
        self.read_q.has_space()
    }

    /// True if the write queue can accept another request.
    pub fn write_queue_has_space(&self) -> bool {
        self.write_q.has_space()
    }

    /// Current occupancies `(reads, writes)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Enqueue a request. Returns `false` (and drops it) if the relevant
    /// queue is full; callers are expected to check for space first.
    pub fn enqueue(&mut self, mut req: Request) -> bool {
        req.bank_index = (req.coords.rank << self.rank_shift) + req.coords.bank;
        let open = self.banks[req.bank_index as usize].open_row;
        if !self.queue_mut(req.is_write).push(req, open) {
            return false;
        }
        // New work may be schedulable immediately.
        self.next_wake = 0;
        true
    }

    /// True when both queues are empty (no work pending).
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// A lower bound on the next DRAM cycle at which [`Self::tick`]
    /// changes any state: the precomputed wake time covering command
    /// issue, watermark flips, and refresh deadlines. Ticks strictly
    /// before it are no-ops by construction (the early return in
    /// `tick`), so a caller that knows no new requests will arrive may
    /// skip straight to it. It is not necessarily the exact next event:
    /// the tick at the wake time may issue nothing and set a later
    /// wake. Any `enqueue` resets it to 0.
    pub fn next_event(&self) -> u64 {
        self.next_wake
    }

    /// Append accumulated completions to `out`, keeping this channel's
    /// buffer (and its capacity) in place.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Advance one DRAM cycle: handle refresh, pick and issue at most one
    /// command. Cycles before the precomputed wake time are no-ops and
    /// return immediately.
    pub fn tick(&mut self, now: u64) {
        if now < self.next_wake {
            return;
        }
        self.handle_refresh(now);

        let q = &self.cfg.queues;
        if self.draining_writes {
            if self.write_q.len() <= q.write_low_watermark {
                self.draining_writes = false;
            }
        } else if self.write_q.len() >= q.write_high_watermark
            || (self.read_q.is_empty() && !self.write_q.is_empty())
        {
            self.draining_writes = true;
        }

        let serve_writes = self.draining_writes || self.read_q.is_empty();
        let queue_wake = if serve_writes && !self.write_q.is_empty() {
            self.schedule(now, true)
        } else if !self.read_q.is_empty() {
            self.schedule(now, false)
        } else {
            Some(u64::MAX)
        };
        self.next_wake = match queue_wake {
            // A command issued; state changed, so re-evaluate next cycle.
            None => now + 1,
            Some(qw) => {
                // If the drain flag is not at a fixed point for the
                // current queue lengths, it flips next tick; don't skip
                // over that.
                let flag = self.draining_writes;
                let qcfg = &self.cfg.queues;
                let next_flag = if flag {
                    self.write_q.len() > qcfg.write_low_watermark
                } else {
                    self.write_q.len() >= qcfg.write_high_watermark
                        || (self.read_q.is_empty() && !self.write_q.is_empty())
                };
                if next_flag != flag {
                    now + 1
                } else {
                    qw.min(self.refresh_due).max(now + 1)
                }
            }
        };
    }

    /// Refresh model: at the per-rank deadline, force-close the rank's
    /// rows and block it for tRFC.
    fn handle_refresh(&mut self, now: u64) {
        if now < self.refresh_due {
            return;
        }
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.geometry.banks_per_rank as usize;
        for r in 0..self.ranks.len() {
            if now >= self.ranks[r].next_refresh {
                for bi in r * banks_per_rank..(r + 1) * banks_per_rank {
                    let bank = &mut self.banks[bi];
                    if bank.open_row.is_some() {
                        bank.open_row = None;
                        self.stats.precharges += 1;
                        self.read_q.set_open(bi, None);
                        self.write_q.set_open(bi, None);
                    }
                    bank.next_activate = bank.next_activate.max(now + t.t_rfc);
                }
                self.ranks[r].refresh(now, &t);
                self.stats.refreshes += 1;
                self.log_cmd(now, Command::Refresh, r as u32, 0, 0);
            }
        }
        self.refresh_due = earliest_refresh(&self.ranks);
    }

    /// FR-FCFS over the selected queue: issue a row-hit CAS if possible,
    /// otherwise make progress (ACT/PRE) for the oldest serviceable
    /// request.
    ///
    /// Returns `None` if a command issued, or `Some(wake)`: a lower
    /// bound on the earliest cycle at which any of the queue's pending
    /// requests could make progress (`u64::MAX` if none are
    /// schedulable). Nothing issues before it while the state is frozen,
    /// so skipping to it never changes behavior; waking earlier only
    /// costs a sweep that issues nothing.
    ///
    /// Every scheduling decision is bank-local given two facts:
    ///
    /// * a CAS candidate is the bank's *oldest row-matching* request
    ///   (CAS legality is uniform across a bank), and
    /// * the PRE/ACT decision belongs to the bank's *oldest* request —
    ///   a younger conflict may never close a row an older request still
    ///   wants, and `act_at` is identical for every request of a closed
    ///   bank.
    ///
    /// So the sweep reads only [`Candidates`], and only of the banks
    /// that could issue. The CAS pass walks the hit set, gated by the
    /// data bus: a bank's CAS gate is its own command spacing, its
    /// rank's (spacing and refresh block), and the bus turnaround, which
    /// is `bus_same` for the last burst's rank and `bus_other >=
    /// bus_same` for every other rank. Before `bus_same` no CAS can
    /// issue, so the pass is skipped and `bus_same` bounds the CAS wake;
    /// before `bus_other` only the last burst's rank is walked and
    /// `bus_other` bounds the rest. The PRE/ACT pass walks the row set,
    /// and only when no CAS can issue. Ties across banks resolve by
    /// global age (sequence number), which reproduces the reference
    /// scheduler's age-order scan without walking the whole queue.
    fn schedule(&mut self, now: u64, writes: bool) -> Option<u64> {
        let mut wake = u64::MAX;
        let t = self.cfg.timing;
        let lat = if writes { t.t_cwd } else { t.t_cas };
        let shift = self.rank_shift;

        let q = if writes { &self.write_q } else { &self.read_q };
        let banks = &self.banks;
        let ranks = &self.ranks;
        let bus = self.bus;
        let bus_same = bus.free_at.saturating_sub(lat);
        let bus_other = match bus.last_rank {
            Some(_) => bus_same.max((bus.free_at + t.t_rtrs).saturating_sub(lat)),
            None => bus_same,
        };
        debug_assert!(q.sets_match(banks), "stale bank set");

        // CAS pass: the oldest row hit whose CAS is legal now.
        let mut cas_best: Option<(u64, u32)> = None; // (seq, slot)
        if q.hit_banks.len > 0 {
            if now < bus_same {
                wake = bus_same;
            } else {
                // Past `bus_other` every rank may issue; before it, only
                // the last burst's (`bus_other > bus_same` implies one).
                let (lo, hi) = match bus.last_rank {
                    Some(l) if now < bus_other => {
                        let l = l as usize;
                        (l << shift, (l + 1) << shift)
                    }
                    _ => (0, banks.len()),
                };
                let mut visited = 0;
                for bi in q.hit_banks.range(lo, hi) {
                    visited += 1;
                    let c = q.cand[bi];
                    debug_assert_eq!(
                        c.hit,
                        first_hit(&q.by_bank[bi], banks[bi].open_row),
                        "stale row-hit candidate"
                    );
                    let Some((seq, slot)) = c.hit else {
                        continue;
                    };
                    let bank = &banks[bi];
                    let r = bi >> shift;
                    let rank = &ranks[r];
                    let (bank_cmd, rank_cmd) = if writes {
                        (bank.next_write, rank.next_write)
                    } else {
                        (bank.next_read, rank.next_read)
                    };
                    let bus_ready = if bus.last_rank.is_none_or(|l| l as usize == r) {
                        bus_same
                    } else {
                        bus_other
                    };
                    let cas_at = bank_cmd.max(rank_cmd).max(rank.ready_at).max(bus_ready);
                    debug_assert_eq!(
                        cas_at,
                        earliest_cas(&t, bank, rank, &bus, q.req(slot)),
                        "split rank gate must reproduce earliest_cas"
                    );
                    if cas_at <= now {
                        if cas_best.is_none_or(|(bs, _)| seq < bs) {
                            cas_best = Some((seq, slot));
                        }
                    } else {
                        wake = wake.min(cas_at);
                    }
                }
                if visited < q.hit_banks.len {
                    wake = wake.min(bus_other);
                }
            }
        }
        if let Some((_, slot)) = cas_best {
            let req = *self.queue(writes).req(slot);
            self.issue_cas(&req, now, !req.caused_row_miss);
            let open = self.banks[req.bank_index as usize].open_row;
            self.queue_mut(writes).remove(slot, open);
            return None;
        }

        // PRE/ACT pass: the oldest head whose row command is legal now.
        // A row-set bank's head conflicts with its open row (any older
        // row hit has drained), or the bank is closed.
        let mut open_best: Option<(u64, usize, u32)> = None; // (seq, bank, head slot)
        for bi in q.row_banks.iter() {
            let head = q.cand[bi].head;
            let bank = &banks[bi];
            let row_at = if bank.open_row.is_some() {
                bank.next_precharge
            } else {
                let rank = &ranks[bi >> shift];
                bank.next_activate.max(rank.activate_allowed_at(&t))
            };
            if row_at <= now {
                if open_best.is_none_or(|(bs, _, _)| head.seq < bs) {
                    open_best = Some((head.seq, bi, head.slot));
                }
            } else {
                wake = wake.min(row_at);
            }
        }
        if let Some((_, bi, head)) = open_best {
            let req = *self.queue(writes).req(head);
            match self.banks[bi].open_row {
                Some(open) => {
                    self.banks[bi].precharge(now, &t);
                    self.stats.precharges += 1;
                    self.log_cmd(now, Command::Precharge, req.coords.rank, bi as u32, open);
                }
                None => {
                    let rank = req.coords.rank as usize;
                    self.banks[bi].activate(req.coords.row, now, &t);
                    self.ranks[rank].activate(now, &t);
                    self.stats.activates += 1;
                    self.log_cmd(
                        now,
                        Command::Activate,
                        req.coords.rank,
                        bi as u32,
                        req.coords.row,
                    );
                }
            }
            self.queue_mut(writes).req_mut(head).caused_row_miss = true;
            let open = self.banks[bi].open_row;
            self.read_q.set_open(bi, open);
            self.write_q.set_open(bi, open);
            return None;
        }
        Some(wake)
    }

    fn queue(&self, writes: bool) -> &RequestQueue {
        if writes {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    fn queue_mut(&mut self, writes: bool) -> &mut RequestQueue {
        if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        }
    }

    /// Issue the column access and record its completion.
    fn issue_cas(&mut self, req: &Request, now: u64, row_hit: bool) {
        let t = self.cfg.timing;
        let bi = req.bank_index as usize;
        let rank = req.coords.rank as usize;
        let (start, finish) = if req.is_write {
            self.banks[bi].write(now, &t);
            self.ranks[rank].write(now, &t);
            self.stats.writes += 1;
            (now + t.t_cwd, now + t.t_cwd + t.t_burst)
        } else {
            self.banks[bi].read(now, &t);
            self.ranks[rank].read(now, &t);
            self.stats.reads += 1;
            self.stats.total_read_latency += now + t.t_cas + t.t_burst - req.arrival;
            (now + t.t_cas, now + t.t_cas + t.t_burst)
        };
        debug_assert!(start >= self.bus.free_at);
        self.bus.free_at = finish;
        self.bus.last_rank = Some(req.coords.rank);
        self.stats.bus_busy_cycles += t.t_burst;
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let cmd = if req.is_write {
            Command::Write
        } else {
            Command::Read
        };
        self.log_cmd(now, cmd, req.coords.rank, bi as u32, req.coords.row);
        // The completion is visible from the next drain, at issue time:
        // the simulator does not wait for `finish` (DESIGN.md §6).
        self.completions.push(Completion {
            id: req.id,
            is_write: req.is_write,
            finish,
            arrival: req.arrival,
        });
    }
}

/// Hand-written: bank and rank counts are checked against the
/// constructed geometry, the queues rebuild their scheduler indexes and
/// row-hit candidates (from the restored open rows), and the wake time
/// is reset rather than restored (resetting it only costs a redundant
/// sweep, never changes the command stream).
///
/// # Panics
/// `save` panics if command logging is enabled — the log is a
/// debugging artifact that cannot be restored canonically, so
/// snapshotting a logged run is refused rather than silently dropping
/// it.
impl Persist for Channel {
    fn save(&self, w: &mut SnapWriter) {
        assert!(
            self.cmd_log.is_none(),
            "cannot snapshot a channel with command logging enabled"
        );
        w.section("CHAN", 2);
        w.put(&self.banks);
        w.put(self.ranks.as_slice());
        w.put(&self.bus);
        w.put(&self.read_q);
        w.put(&self.write_q);
        w.put(&self.draining_writes);
        w.put(&self.stats);
        w.put(&self.completions);
    }

    fn load(&mut self, r: &mut SnapReader, _what: &'static str) -> Result<(), SnapError> {
        r.section("CHAN", 2)?;
        r.load_exact(&mut self.banks, "channel bank count (config mismatch)")?;
        r.load_exact(&mut self.ranks, "channel rank count (config mismatch)")?;
        self.bus.load(r, "channel bus")?;
        self.read_q.load(r, "read queue")?;
        self.write_q.load(r, "write queue")?;
        self.draining_writes.load(r, "draining_writes")?;
        self.stats.load(r, "channel stats")?;
        self.completions.load(r, "channel completions")?;
        for (bi, bank) in self.banks.iter().enumerate() {
            self.read_q.set_open(bi, bank.open_row);
            self.write_q.set_open(bi, bank.open_row);
        }
        self.refresh_due = earliest_refresh(&self.ranks);
        self.cmd_log = None;
        self.next_wake = 0;
        Ok(())
    }
}

/// Hand-written: only the live requests are stored, in age order; the
/// slab, per-bank index, candidates and bank sets are rebuilt by
/// re-enqueueing them into a queue of the constructed capacity. The
/// queue does not know the banks' open rows, so the row-hit candidates
/// come back empty (every active bank in the row set) and
/// [`Channel`]'s `load` re-finds them.
impl Persist for RequestQueue {
    fn save(&self, w: &mut SnapWriter) {
        w.put(&self.live_by_seq());
    }

    fn load(&mut self, r: &mut SnapReader, what: &'static str) -> Result<(), SnapError> {
        let live: Vec<Request> = r.get(what)?;
        let nbanks = self.by_bank.len();
        *self = RequestQueue::new(self.cap, nbanks);
        for req in live {
            let what = if req.bank_index as usize >= nbanks {
                "queued request bank index past the bank count"
            } else if !self.push(req, None) {
                "queue request count exceeds configured capacity"
            } else {
                continue;
            };
            return Err(SnapError::Corrupt { what, at: r.pos() });
        }
        Ok(())
    }
}

fn earliest_refresh(ranks: &[RankState]) -> u64 {
    ranks
        .iter()
        .map(|r| r.next_refresh)
        .min()
        .unwrap_or(u64::MAX)
}

/// Earliest cycle at which `req`'s column access passes every
/// `cas_allowed` check, given frozen bank/rank/bus state. Each check is
/// of the form `now >= X` (the bus checks after moving the burst latency
/// to the left-hand side), so the earliest legal cycle is their max.
fn earliest_cas(
    t: &DramTiming,
    bank: &BankState,
    rank: &RankState,
    bus: &DataBus,
    req: &Request,
) -> u64 {
    let lat = if req.is_write { t.t_cwd } else { t.t_cas };
    let cmd_ready = if req.is_write {
        bank.next_write.max(rank.next_write)
    } else {
        bank.next_read.max(rank.next_read)
    };
    let mut bus_ready = bus.free_at.saturating_sub(lat);
    if let Some(last) = bus.last_rank {
        if last != req.coords.rank {
            bus_ready = bus_ready.max((bus.free_at + t.t_rtrs).saturating_sub(lat));
        }
    }
    rank.ready_at.max(cmd_ready).max(bus_ready)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::AddressDecoder;
    use crate::config::BLOCK_BYTES;

    fn setup() -> (Channel, AddressDecoder) {
        let cfg = DramConfig::table_iii();
        let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
        (Channel::new(cfg), dec)
    }

    fn req(dec: &AddressDecoder, id: u64, addr: u64, is_write: bool, arrival: u64) -> Request {
        Request::new(id, addr, dec.decode(addr), is_write, arrival)
    }

    fn run_until_idle(ch: &mut Channel, mut now: u64) -> (Vec<Completion>, u64) {
        let mut done = Vec::new();
        let deadline = now + 1_000_000;
        while !ch.is_idle() && now < deadline {
            ch.tick(now);
            ch.drain_completions_into(&mut done);
            now += 1;
        }
        assert!(now < deadline, "channel failed to drain");
        (done, now)
    }

    #[test]
    fn single_read_latency_is_act_plus_cas_plus_burst() {
        let (mut ch, dec) = setup();
        assert!(ch.enqueue(req(&dec, 1, 0, false, 0)));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 1);
        let t = DramConfig::table_iii().timing;
        // ACT at 0, RD at tRCD, last beat at tRCD + CL + burst.
        assert_eq!(done[0].finish, t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn row_hit_second_read_is_faster() {
        let (mut ch, dec) = setup();
        // Same row, consecutive columns under 4-RBH (blocks 0..4 share a row).
        assert!(ch.enqueue(req(&dec, 1, 0, false, 0)));
        assert!(ch.enqueue(req(&dec, 2, BLOCK_BYTES, false, 0)));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.stats().activates, 1, "second access should be a row hit");
        assert_eq!(ch.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let (mut ch, dec) = setup();
        let g = DramConfig::table_iii().geometry;
        // Two addresses in the same bank, different rows: stride one full
        // row's worth of one bank's address space under 4-RBH mapping.
        let stride = u64::from(g.blocks_per_row / 4)
            * u64::from(g.banks_per_rank)
            * u64::from(g.ranks_per_channel)
            * 4
            * BLOCK_BYTES;
        let a = req(&dec, 1, 0, false, 0);
        let b = req(&dec, 2, stride, false, 0);
        assert_eq!(a.coords.bank, b.coords.bank);
        assert_eq!(a.coords.rank, b.coords.rank);
        assert_ne!(a.coords.row, b.coords.row);
        ch.enqueue(a);
        ch.enqueue(b);
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 2);
        assert_eq!(ch.stats().precharges, 1);
        assert_eq!(ch.stats().activates, 2);
    }

    #[test]
    fn writes_drain_when_read_queue_empty() {
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 0, true, 0));
        let (done, _) = run_until_idle(&mut ch, 0);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert_eq!(ch.stats().writes, 1);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 1 << 20, true, 0));
        ch.enqueue(req(&dec, 2, 0, false, 0));
        let (done, _) = run_until_idle(&mut ch, 0);
        // The read should finish first even though the write arrived first.
        assert!(!done[0].is_write);
    }

    #[test]
    fn write_drain_mode_triggers_at_high_watermark() {
        let (mut ch, dec) = setup();
        let hi = DramConfig::table_iii().queues.write_high_watermark;
        for i in 0..hi as u64 {
            assert!(ch.enqueue(req(&dec, i, i * BLOCK_BYTES * 1024, true, 0)));
        }
        // Keep a steady read supply; drain mode must still serve writes.
        ch.enqueue(req(&dec, 1000, 0, false, 0));
        let mut now = 0;
        let mut wrote = 0;
        while wrote == 0 && now < 100_000 {
            ch.tick(now);
            let mut done = Vec::new();
            ch.drain_completions_into(&mut done);
            wrote = done.iter().filter(|c| c.is_write).count();
            now += 1;
        }
        assert!(wrote > 0, "writes never drained");
    }

    #[test]
    fn queue_capacity_enforced() {
        let (mut ch, dec) = setup();
        let cap = DramConfig::table_iii().queues.read_queue;
        for i in 0..cap as u64 {
            assert!(ch.enqueue(req(&dec, i, i * BLOCK_BYTES, false, 0)));
        }
        assert!(!ch.read_queue_has_space());
        assert!(!ch.enqueue(req(&dec, 999, 0, false, 0)));
    }

    #[test]
    fn refresh_happens_and_is_counted() {
        let (mut ch, dec) = setup();
        let t = DramConfig::table_iii().timing;
        // Tick past two refresh intervals (refreshes are rank-staggered)
        // with sparse traffic.
        let mut now = 0;
        ch.enqueue(req(&dec, 1, 0, false, 0));
        while now < 2 * t.t_refi + t.t_rfc + 100 {
            ch.tick(now);
            now += 1;
        }
        assert!(ch.stats().refreshes >= 16, "all 16 ranks should refresh");
    }

    /// An idle channel ticked only at [`Channel::next_event`] refreshes
    /// exactly as one ticked every cycle: same count, same command log.
    #[test]
    fn idle_ticks_at_next_event_match_every_cycle() {
        let t = DramConfig::table_iii().timing;
        let end = 10 * t.t_refi;
        let run = |skip: bool| {
            let (mut ch, _) = setup();
            ch.enable_cmd_log();
            let mut now = 0;
            while now < end {
                ch.tick(now);
                now = if skip {
                    ch.next_event().max(now + 1)
                } else {
                    now + 1
                };
            }
            (ch.stats().refreshes, ch.take_cmd_log())
        };
        let (every, every_log) = run(false);
        let (skipped, skipped_log) = run(true);
        // 16 ranks x ~9-10 intervals each (staggered start).
        assert!(every >= 140, "{every} refreshes");
        assert_eq!(skipped, every);
        assert_eq!(skipped_log, every_log);
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let (mut ch, dec) = setup();
        // Two reads to different banks: total time must be far less than
        // two serialized row misses.
        let g = DramConfig::table_iii().geometry;
        let bank_stride =
            u64::from(g.blocks_per_row / 4) * 4 * BLOCK_BYTES * u64::from(g.ranks_per_channel);
        let a = req(&dec, 1, 0, false, 0);
        let b = req(&dec, 2, bank_stride, false, 0);
        assert_ne!(a.coords.bank, b.coords.bank);
        ch.enqueue(a);
        ch.enqueue(b);
        let (done, _) = run_until_idle(&mut ch, 0);
        let t = DramConfig::table_iii().timing;
        let serial = 2 * (t.t_rcd + t.t_cas + t.t_burst);
        let max_finish = done.iter().map(|c| c.finish).max().unwrap();
        assert!(
            max_finish < serial,
            "banks did not overlap: {max_finish} vs serial {serial}"
        );
    }

    #[test]
    fn slab_slots_recycle_across_waves() {
        // Several full capacity waves through the same queue: slot reuse,
        // the per-bank candidates, and the bank sets must all stay
        // consistent, and every request must complete exactly once.
        let (mut ch, dec) = setup();
        let cap = DramConfig::table_iii().queues.read_queue as u64;
        let mut now = 0;
        let mut total = 0u64;
        for wave in 0..4u64 {
            for i in 0..cap {
                let addr = (wave * cap + i) * BLOCK_BYTES * 131;
                assert!(ch.enqueue(req(&dec, wave * cap + i, addr, false, now)));
            }
            let (done, end) = run_until_idle(&mut ch, now);
            total += done.len() as u64;
            now = end;
        }
        assert_eq!(total, 4 * cap);
        assert_eq!(ch.stats().reads, 4 * cap);
    }

    #[test]
    fn bank_set_ranges_cross_words() {
        let mut s = BankSet::new(256);
        for b in [0, 7, 63, 64, 100, 127, 128, 200, 255] {
            s.set(b, true);
        }
        s.set(100, false);
        s.set(100, false);
        s.set(7, true);
        assert_eq!(s.len, 8);
        let all: Vec<usize> = s.iter().collect();
        assert_eq!(all, [0, 7, 63, 64, 127, 128, 200, 255]);
        let rank = |lo, hi| s.range(lo, hi).collect::<Vec<_>>();
        assert_eq!(rank(0, 8), [0, 7]);
        assert_eq!(rank(8, 16), []);
        assert_eq!(rank(56, 64), [63]);
        assert_eq!(rank(64, 192), [64, 127, 128]);
        assert_eq!(rank(192, 256), [200, 255]);
    }

    #[test]
    fn idle_ticks_after_wake_computation_are_noops() {
        // After draining, a long idle stretch must still refresh on
        // schedule (next_wake covers refresh deadlines).
        let (mut ch, dec) = setup();
        ch.enqueue(req(&dec, 1, 0, false, 0));
        let (_, end) = run_until_idle(&mut ch, 0);
        let t = DramConfig::table_iii().timing;
        let horizon = end + 2 * t.t_refi;
        for now in end..horizon {
            ch.tick(now);
        }
        assert!(ch.stats().refreshes >= 16);
    }
}
