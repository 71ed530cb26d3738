//! Request and command types exchanged with the memory controller.

use itesp_snap::Persist;
use serde::{Deserialize, Serialize};

use crate::address::DecodedAddr;

/// Unique identifier the caller uses to match completions to requests.
pub type RequestId = u64;

/// A DRAM command, as issued on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    Activate,
    Read,
    Write,
    Precharge,
    Refresh,
}

/// A memory request waiting in a controller queue.
#[derive(Debug, Clone, Copy, Default, Persist)]
pub struct Request {
    pub id: RequestId,
    /// Physical byte address of the block.
    pub addr: u64,
    pub coords: DecodedAddr,
    pub is_write: bool,
    /// Cycle the request entered the controller queue.
    pub arrival: u64,
    /// Set by the scheduler when this request forced a PRE or ACT, so its
    /// eventual column access is accounted as a row miss.
    pub(crate) caused_row_miss: bool,
    /// Flat `rank * banks_per_rank + bank` index within the channel,
    /// computed once at enqueue so the scheduler's hot loops never
    /// re-derive it from the coordinates.
    pub(crate) bank_index: u32,
}

impl Request {
    pub fn new(
        id: RequestId,
        addr: u64,
        coords: DecodedAddr,
        is_write: bool,
        arrival: u64,
    ) -> Self {
        Request {
            id,
            addr,
            coords,
            is_write,
            arrival,
            caused_row_miss: false,
            bank_index: 0,
        }
    }
}

/// One command issued on the command bus, as recorded by the optional
/// per-channel command log (used by the scheduler-equivalence tests and
/// available for debugging).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IssuedCommand {
    /// DRAM cycle the command issued.
    pub cycle: u64,
    pub cmd: Command,
    pub rank: u32,
    /// Flat bank index within the channel (0 for `Refresh`, which is
    /// rank-wide).
    pub bank: u32,
    /// Row operated on (ACT: opened row; PRE: closed row; RD/WR: open
    /// row; Refresh: 0).
    pub row: u32,
}

/// A finished request: data fully transferred on the bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Persist)]
pub struct Completion {
    pub id: RequestId,
    pub is_write: bool,
    /// Cycle of the last data beat.
    pub finish: u64,
    /// Cycle the request entered the controller queue.
    pub arrival: u64,
}

impl Completion {
    /// Queueing + service latency in DRAM cycles.
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }
}

/// Aggregate event counts for one channel, consumed by the power model
/// and the figure regenerators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize, Persist)]
pub struct ChannelStats {
    pub reads: u64,
    pub writes: u64,
    pub activates: u64,
    pub precharges: u64,
    pub refreshes: u64,
    /// Column accesses that hit an already-open row.
    pub row_hits: u64,
    /// Column accesses that required an ACT (and possibly a PRE) first.
    pub row_misses: u64,
    /// Sum of read latencies (arrival to last beat), for averages.
    pub total_read_latency: u64,
    /// Busy data-bus cycles, for utilization.
    pub bus_busy_cycles: u64,
}

impl ChannelStats {
    /// Fraction of column accesses that hit in a row buffer.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Mean read latency in DRAM cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            self.total_read_latency as f64 / self.reads as f64
        }
    }

    /// Merge another channel's counters into this one.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.activates += other.activates;
        self.precharges += other.precharges;
        self.refreshes += other.refreshes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.total_read_latency += other.total_read_latency;
        self.bus_busy_cycles += other.bus_busy_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_latency() {
        let c = Completion {
            id: 1,
            is_write: false,
            finish: 120,
            arrival: 20,
        };
        assert_eq!(c.latency(), 100);
    }

    #[test]
    fn row_hit_rate_handles_empty() {
        assert_eq!(ChannelStats::default().row_hit_rate(), 0.0);
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ChannelStats {
            reads: 1,
            row_hits: 2,
            ..Default::default()
        };
        let b = ChannelStats {
            reads: 3,
            row_misses: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads, 4);
        assert_eq!(a.row_hits, 2);
        assert_eq!(a.row_misses, 4);
    }
}
