//! Workload generation and driving for the scheduler oracles.
//!
//! The arrival mixes ([`Arrival`], [`addr_for`]) are shared by the
//! scheduler-equivalence property test and the protocol checker's
//! tests; [`run_arrivals`] drives any [`Scheduler`] implementation with
//! identical enqueue backpressure, returning the full command log for
//! validation.

use itesp_dram::{
    AddressDecoder, Channel, Completion, DramConfig, IssuedCommand, Request, BLOCK_BYTES,
};

use crate::reference::ReferenceChannel;

/// One element of a generated workload: wait `gap` cycles after the
/// previous arrival, then issue a request derived from `(kind, idx)`.
/// `kind == 0` picks dense low blocks (row hits and bank parallelism);
/// other kinds stride by one row of one bank's address space (row
/// conflicts in the same bank) with the row scaled by `kind`.
pub type Arrival = (u64, u8, u32, bool);

/// The common scheduler surface of [`Channel`] and [`ReferenceChannel`],
/// so workloads can drive either implementation.
pub trait Scheduler {
    fn config(&self) -> &DramConfig;
    fn enable_cmd_log(&mut self);
    fn take_cmd_log(&mut self) -> Vec<IssuedCommand>;
    fn enqueue(&mut self, req: Request) -> bool;
    fn tick(&mut self, now: u64);
    fn is_idle(&self) -> bool;
    fn drain_completions_into(&mut self, out: &mut Vec<Completion>);
}

macro_rules! impl_scheduler {
    ($ty:ty) => {
        impl Scheduler for $ty {
            fn config(&self) -> &DramConfig {
                self.config()
            }
            fn enable_cmd_log(&mut self) {
                self.enable_cmd_log();
            }
            fn take_cmd_log(&mut self) -> Vec<IssuedCommand> {
                self.take_cmd_log()
            }
            fn enqueue(&mut self, req: Request) -> bool {
                self.enqueue(req)
            }
            fn tick(&mut self, now: u64) {
                self.tick(now);
            }
            fn is_idle(&self) -> bool {
                self.is_idle()
            }
            fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
                self.drain_completions_into(out);
            }
        }
    };
}

impl_scheduler!(Channel);
impl_scheduler!(ReferenceChannel);

/// Map a generated `(kind, idx)` pair to a block address (see
/// [`Arrival`]).
pub fn addr_for(cfg: &DramConfig, kind: u8, idx: u32) -> u64 {
    let g = cfg.geometry;
    if kind == 0 {
        u64::from(idx % 256) * BLOCK_BYTES
    } else {
        let conflict_stride = u64::from(g.blocks_per_row / 4)
            * u64::from(g.banks_per_rank)
            * u64::from(g.ranks_per_channel)
            * 4
            * BLOCK_BYTES;
        u64::from(idx % 16) * BLOCK_BYTES + u64::from(kind) * conflict_stride
    }
}

/// Result of draining a workload through a scheduler.
#[derive(Debug)]
pub struct WorkloadRun {
    pub log: Vec<IssuedCommand>,
    pub completions: Vec<Completion>,
    /// Last cycle ticked (the channel was idle after this cycle).
    pub end_cycle: u64,
}

/// Drive `sched` with `arrivals` until every request completes, ticking
/// every cycle with the scheduler-equivalence backpressure discipline
/// (a full queue retries next cycle). Panics if the channel fails to
/// drain within a generous deadline.
pub fn run_arrivals<S: Scheduler>(sched: &mut S, arrivals: &[Arrival]) -> WorkloadRun {
    let cfg = *sched.config();
    let dec = AddressDecoder::new(cfg.geometry, cfg.mapping);
    let mut stream: Vec<(u64, u64, bool)> = Vec::new();
    let mut at = 0u64;
    for &(gap, kind, idx, is_write) in arrivals {
        at += gap;
        stream.push((at, addr_for(&cfg, kind, idx), is_write));
    }
    run_stream(sched, &dec, &stream)
}

/// Like [`run_arrivals`], but with explicit `(arrival_cycle, addr,
/// is_write)` triples for handcrafted workloads.
pub fn run_stream<S: Scheduler>(
    sched: &mut S,
    dec: &AddressDecoder,
    stream: &[(u64, u64, bool)],
) -> WorkloadRun {
    sched.enable_cmd_log();
    let mut next = 0usize;
    let mut id = 0u64;
    let mut now = 0u64;
    let mut completions = Vec::new();
    let deadline = 4_000_000u64;
    while (next < stream.len() || !sched.is_idle()) && now < deadline {
        while next < stream.len() && stream[next].0 <= now {
            let (_, addr, is_write) = stream[next];
            let req = Request::new(id, addr, dec.decode(addr), is_write, now);
            if !sched.enqueue(req) {
                break; // full; retry next cycle
            }
            id += 1;
            next += 1;
        }
        sched.tick(now);
        sched.drain_completions_into(&mut completions);
        now += 1;
    }
    assert!(now < deadline, "scheduler failed to drain the workload");
    WorkloadRun {
        log: sched.take_cmd_log(),
        completions,
        end_cycle: now.saturating_sub(1),
    }
}

/// Find a block address decoding to the given channel coordinates, by
/// scanning block addresses. Panics if none is found in the first 2^22
/// blocks — enough to cover every (rank, bank, row) pattern the
/// handcrafted workloads ask for.
pub fn find_addr(dec: &AddressDecoder, rank: u32, bank: u32, row: u32) -> u64 {
    for block in 0..(1u64 << 22) {
        let addr = block * BLOCK_BYTES;
        let d = dec.decode(addr);
        if d.channel == 0 && d.rank == rank && d.bank == bank && d.row == row {
            return addr;
        }
    }
    panic!("no block address decodes to rank {rank}, bank {bank}, row {row}");
}
