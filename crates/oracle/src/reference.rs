//! Reference (unoptimized) FR-FCFS channel scheduler.
//!
//! This is the original straight-line implementation of the channel
//! scheduler: plain `Vec` queues scanned linearly every cycle, with the
//! quadratic "does an older request still want this open row" check in
//! pass 2. It is kept as the executable specification for the optimized
//! [`itesp_dram::Channel`]: the two must issue the *same commands on
//! the same cycles* for any request sequence, which the
//! `scheduler_equivalence` property test checks via the command log.
//!
//! Do not optimize this module; its value is being obviously correct.

use itesp_dram::bank::{BankState, RankState};
use itesp_dram::{ChannelStats, Command, Completion, DramConfig, IssuedCommand, Request};

/// State of the shared data bus: last burst's rank and end time.
#[derive(Debug, Clone, Copy, Default)]
struct DataBus {
    free_at: u64,
    last_rank: Option<u32>,
}

/// A queued request and whether it forced a PRE or ACT, so its
/// eventual column access is accounted as a row miss.
#[derive(Debug, Clone, Copy)]
struct Queued {
    req: Request,
    caused_row_miss: bool,
}

/// A single DRAM channel with its controller queues, scheduled by
/// exhaustive per-cycle queue scans.
#[derive(Debug)]
pub struct ReferenceChannel {
    cfg: DramConfig,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    bus: DataBus,
    read_q: Vec<Queued>,
    write_q: Vec<Queued>,
    draining_writes: bool,
    stats: ChannelStats,
    completions: Vec<Completion>,
    cmd_log: Option<Vec<IssuedCommand>>,
}

impl ReferenceChannel {
    pub fn new(cfg: DramConfig) -> Self {
        let g = &cfg.geometry;
        let nbanks = (g.ranks_per_channel * g.banks_per_rank) as usize;
        let ranks = (0..g.ranks_per_channel)
            .map(|r| RankState::new(&cfg.timing, u64::from(r)))
            .collect();
        ReferenceChannel {
            cfg,
            banks: vec![BankState::default(); nbanks],
            ranks,
            bus: DataBus::default(),
            read_q: Vec::with_capacity(cfg.queues.read_queue),
            write_q: Vec::with_capacity(cfg.queues.write_queue),
            draining_writes: false,
            stats: ChannelStats::default(),
            completions: Vec::new(),
            cmd_log: None,
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

    /// Current occupancies `(reads, writes)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.read_q.len(), self.write_q.len())
    }

    /// Enqueue a request. Returns `false` (and drops it) if the relevant
    /// queue is full.
    pub fn enqueue(&mut self, req: Request) -> bool {
        let q = if req.is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        let cap = if req.is_write {
            self.cfg.queues.write_queue
        } else {
            self.cfg.queues.read_queue
        };
        if q.len() >= cap {
            return false;
        }
        q.push(Queued {
            req,
            caused_row_miss: false,
        });
        true
    }

    /// True when both queues are empty (no work pending).
    pub fn is_idle(&self) -> bool {
        self.read_q.is_empty() && self.write_q.is_empty()
    }

    /// Append accumulated completions to `out`.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Advance one DRAM cycle: handle refresh, pick and issue at most one
    /// command.
    pub fn tick(&mut self, now: u64) {
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
        if serve_writes && !self.write_q.is_empty() {
            self.schedule(now, true);
        } else if !self.read_q.is_empty() {
            self.schedule(now, false);
        }
    }

    /// Refresh model: at the per-rank deadline, force-close the rank's
    /// rows and block it for tRFC.
    fn handle_refresh(&mut self, now: u64) {
        let t = self.cfg.timing;
        let banks_per_rank = self.cfg.geometry.banks_per_rank as usize;
        for r in 0..self.ranks.len() {
            if now >= self.ranks[r].next_refresh {
                for b in 0..banks_per_rank {
                    let bank = &mut self.banks[r * banks_per_rank + b];
                    if bank.open_row.is_some() {
                        bank.open_row = None;
                        self.stats.precharges += 1;
                    }
                    bank.next_activate = bank.next_activate.max(now + t.t_rfc);
                }
                self.ranks[r].refresh(now, &t);
                self.stats.refreshes += 1;
                self.log_cmd(now, Command::Refresh, r as u32, 0, 0);
            }
        }
    }

    /// FR-FCFS over the selected queue: issue a row-hit CAS if possible,
    /// otherwise make progress (ACT/PRE) for the oldest serviceable request.
    fn schedule(&mut self, now: u64, writes: bool) {
        // Pass 1: oldest request whose row is open and whose CAS can issue.
        let hit = self.queue(writes).iter().position(|q| {
            let bank = &self.banks[self.bank_index(&q.req)];
            bank.open_row == Some(q.req.coords.row) && self.cas_allowed(&q.req, now)
        });
        if let Some(pos) = hit {
            let q = self.queue(writes)[pos];
            self.issue_cas(&q.req, now, !q.caused_row_miss);
            self.queue_mut(writes).remove(pos);
            return;
        }

        // Pass 2: for requests in age order, open the needed row.
        // At most one command per cycle.
        let len = self.queue(writes).len();
        for pos in 0..len {
            let req = self.queue(writes)[pos].req;
            let bi = self.bank_index(&req);
            match self.banks[bi].open_row {
                Some(open) if open != req.coords.row => {
                    // Conflict: precharge, but only if no older request
                    // still wants the open row (preserve row hits).
                    let wanted = self
                        .queue(writes)
                        .iter()
                        .take(pos)
                        .any(|q| self.bank_index(&q.req) == bi && q.req.coords.row == open);
                    if !wanted && now >= self.banks[bi].next_precharge {
                        self.banks[bi].precharge(now, &self.cfg.timing);
                        self.stats.precharges += 1;
                        self.queue_mut(writes)[pos].caused_row_miss = true;
                        self.log_cmd(now, Command::Precharge, req.coords.rank, bi as u32, open);
                        return;
                    }
                }
                None if self.act_allowed(&req, now) => {
                    let rank = req.coords.rank as usize;
                    self.banks[bi].activate(req.coords.row, now, &self.cfg.timing);
                    self.ranks[rank].activate(now, &self.cfg.timing);
                    self.stats.activates += 1;
                    self.queue_mut(writes)[pos].caused_row_miss = true;
                    self.log_cmd(
                        now,
                        Command::Activate,
                        req.coords.rank,
                        bi as u32,
                        req.coords.row,
                    );
                    return;
                }
                _ => {
                    // Row already open and matching but CAS not yet
                    // allowed: nothing to do for this request.
                }
            }
        }
    }

    fn queue(&self, writes: bool) -> &Vec<Queued> {
        if writes {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    fn queue_mut(&mut self, writes: bool) -> &mut Vec<Queued> {
        if writes {
            &mut self.write_q
        } else {
            &mut self.read_q
        }
    }

    fn bank_index(&self, req: &Request) -> usize {
        (req.coords.rank * self.cfg.geometry.banks_per_rank + req.coords.bank) as usize
    }

    /// Can this request's column access issue at `now`?
    fn cas_allowed(&self, req: &Request, now: u64) -> bool {
        let t = &self.cfg.timing;
        let bank = &self.banks[self.bank_index(req)];
        let rank = &self.ranks[req.coords.rank as usize];
        if now < rank.ready_at {
            return false;
        }
        let cmd_ok = if req.is_write {
            now >= bank.next_write && now >= rank.next_write
        } else {
            now >= bank.next_read && now >= rank.next_read
        };
        if !cmd_ok {
            return false;
        }
        // Data-bus availability.
        let start = now + if req.is_write { t.t_cwd } else { t.t_cas };
        if start < self.bus.free_at {
            return false;
        }
        if let Some(last) = self.bus.last_rank {
            if last != req.coords.rank && start < self.bus.free_at + t.t_rtrs {
                return false;
            }
        }
        true
    }

    /// Can an ACT for this request issue at `now`?
    fn act_allowed(&self, req: &Request, now: u64) -> bool {
        let bank = &self.banks[self.bank_index(req)];
        let rank = &self.ranks[req.coords.rank as usize];
        now >= bank.next_activate && now >= rank.activate_allowed_at(&self.cfg.timing)
    }

    /// Issue the column access and record its completion.
    fn issue_cas(&mut self, req: &Request, now: u64, row_hit: bool) {
        let t = self.cfg.timing;
        let bi = self.bank_index(req);
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
        self.completions.push(Completion {
            id: req.id,
            is_write: req.is_write,
            finish,
            arrival: req.arrival,
        });
    }
}
