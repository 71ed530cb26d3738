//! # itesp-dram — cycle-accurate DDR3 memory-system simulator
//!
//! A trace-driven DRAM model in the spirit of USIMM (the simulator used by
//! the ITESP paper), providing:
//!
//! * the Table III DDR3-1600 timing constraints (tRC, tRCD, tFAW, ...),
//! * channels / ranks / banks with open-page row buffers,
//! * an FR-FCFS scheduler with write-drain watermarks and refresh,
//! * the four address-mapping policies of Figure 14,
//! * a Micron-style energy model.
//!
//! The security engine (`itesp-core`) layers metadata traffic on top of
//! this; the full-system driver lives in `itesp-sim`.
//!
//! ## Example
//!
//! ```
//! use itesp_dram::{DramConfig, MemorySystem};
//!
//! let mut mem = MemorySystem::new(DramConfig::table_iii());
//! let id = mem.enqueue_read(0x4000, 0).expect("queue has space");
//! let mut now = 0;
//! let mut completions = Vec::new();
//! let done = loop {
//!     mem.tick(now);
//!     mem.drain_completions_into(&mut completions);
//!     if let Some(&c) = completions.iter().find(|c| c.id == id) {
//!         break c;
//!     }
//!     now += 1;
//! };
//! assert!(done.finish > 0);
//! ```

pub mod address;
pub mod bank;
pub mod channel;
pub mod command;
pub mod config;
pub mod power;

pub use address::{AddressDecoder, AddressMapping, DecodedAddr};
pub use channel::Channel;
pub use command::{ChannelStats, Command, Completion, IssuedCommand, Request, RequestId};
pub use config::{
    ConfigError, DramConfig, DramGeometry, DramTiming, PowerParams, QueueConfig, BLOCK_BYTES,
    BLOCK_SHIFT,
};
pub use power::{energy_for_run, EnergyBreakdown};

/// Error returned when a controller queue cannot accept a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory controller queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// The complete multi-channel memory system.
///
/// Owns one [`Channel`] per configured channel and the address decoder.
/// Callers enqueue block-granularity reads and writes and tick the system
/// once per DRAM cycle; completions carry the caller-assigned request ids.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    decoder: AddressDecoder,
    channels: Vec<Channel>,
    next_id: RequestId,
    in_flight: u64,
}

impl MemorySystem {
    pub fn new(cfg: DramConfig) -> Self {
        let decoder = AddressDecoder::new(cfg.geometry, cfg.mapping);
        let channels = (0..cfg.geometry.channels)
            .map(|_| Channel::new(cfg))
            .collect();
        MemorySystem {
            cfg,
            decoder,
            channels,
            next_id: 0,
            in_flight: 0,
        }
    }

    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    pub fn decoder(&self) -> &AddressDecoder {
        &self.decoder
    }

    /// Would a read to `addr` be accepted right now?
    pub fn can_accept_read(&self, addr: u64) -> bool {
        self.channels[self.decoder.decode(addr).channel as usize].read_queue_has_space()
    }

    /// Would a write to `addr` be accepted right now?
    pub fn can_accept_write(&self, addr: u64) -> bool {
        self.channels[self.decoder.decode(addr).channel as usize].write_queue_has_space()
    }

    /// Enqueue a block read; returns the assigned request id.
    ///
    /// # Errors
    /// Returns [`QueueFull`] if the target channel's read queue is full.
    pub fn enqueue_read(&mut self, addr: u64, now: u64) -> Result<RequestId, QueueFull> {
        self.enqueue(addr, false, now)
    }

    /// Enqueue a block write; returns the assigned request id.
    ///
    /// # Errors
    /// Returns [`QueueFull`] if the target channel's write queue is full.
    pub fn enqueue_write(&mut self, addr: u64, now: u64) -> Result<RequestId, QueueFull> {
        self.enqueue(addr, true, now)
    }

    fn enqueue(&mut self, addr: u64, is_write: bool, now: u64) -> Result<RequestId, QueueFull> {
        let coords = self.decoder.decode(addr);
        let id = self.next_id;
        let req = Request::new(id, addr, coords, is_write, now);
        if self.channels[coords.channel as usize].enqueue(req) {
            self.next_id += 1;
            self.in_flight += 1;
            Ok(id)
        } else {
            Err(QueueFull)
        }
    }

    /// Advance every channel by one DRAM cycle.
    pub fn tick(&mut self, now: u64) {
        for ch in &mut self.channels {
            ch.tick(now);
        }
    }

    /// True when no requests are queued anywhere.
    pub fn is_idle(&self) -> bool {
        self.in_flight == 0
    }

    /// Earliest [`Channel::next_event`] across channels: a lower bound
    /// on the next DRAM cycle at which ticking the system can change
    /// any state — completions, queue space, refreshes, watermark
    /// flips. Ticks strictly before it are no-ops as long as nothing is
    /// enqueued in between (an enqueue resets the owning channel's wake
    /// to 0); the tick at it may still be one.
    pub fn next_event(&self) -> u64 {
        self.channels
            .iter()
            .map(Channel::next_event)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Number of requests accepted but not yet completed.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Drain completions from all channels into `out` (appending),
    /// preserving each channel's buffer capacity.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        let before = out.len();
        for ch in &mut self.channels {
            ch.drain_completions_into(out);
        }
        self.in_flight -= (out.len() - before) as u64;
    }

    /// Start recording every issued command on every channel.
    pub fn enable_cmd_logs(&mut self) {
        for ch in &mut self.channels {
            ch.enable_cmd_log();
        }
    }

    /// Drain the recorded command log of each channel (one entry per
    /// channel, in channel order).
    pub fn take_cmd_logs(&mut self) -> Vec<Vec<IssuedCommand>> {
        self.channels
            .iter_mut()
            .map(Channel::take_cmd_log)
            .collect()
    }

    /// Merged statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut merged = ChannelStats::default();
        for ch in &self.channels {
            merged.merge(ch.stats());
        }
        merged
    }

    /// Energy consumed over `cycles` DRAM cycles of simulated time.
    pub fn energy(&self, cycles: u64) -> EnergyBreakdown {
        energy_for_run(&self.cfg, &self.stats(), cycles)
    }
}

/// Hand-written: the channel count is checked against the constructed
/// configuration.
impl itesp_snap::Persist for MemorySystem {
    fn save(&self, w: &mut itesp_snap::SnapWriter) {
        w.section("DMEM", 1);
        w.put(&self.next_id);
        w.put(&self.in_flight);
        w.put(self.channels.as_slice());
    }

    fn load(
        &mut self,
        r: &mut itesp_snap::SnapReader,
        _what: &'static str,
    ) -> Result<(), itesp_snap::SnapError> {
        r.section("DMEM", 1)?;
        self.next_id.load(r, "memory next_id")?;
        self.in_flight.load(r, "memory in_flight")?;
        r.load_exact(&mut self.channels, "memory channel count (config mismatch)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_round_trip() {
        let mut mem = MemorySystem::new(DramConfig::table_iii());
        let id = mem.enqueue_read(4096, 0).unwrap();
        let mut now = 0;
        let mut done = Vec::new();
        while done.is_empty() && now < 10_000 {
            mem.tick(now);
            mem.drain_completions_into(&mut done);
            now += 1;
        }
        let c = done.first().expect("read completed");
        assert_eq!(c.id, id);
        assert!(!c.is_write);
        assert!(mem.is_idle());
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut mem = MemorySystem::new(DramConfig::table_iii());
        let a = mem.enqueue_read(0, 0).unwrap();
        let b = mem.enqueue_write(64, 0).unwrap();
        assert!(b > a);
    }

    #[test]
    fn queue_full_error() {
        let mut mem = MemorySystem::new(DramConfig::table_iii());
        let cap = mem.config().queues.read_queue;
        for i in 0..cap as u64 {
            mem.enqueue_read(i * 64, 0).unwrap();
        }
        assert_eq!(mem.enqueue_read(0, 0), Err(QueueFull));
        assert!(!mem.can_accept_read(0));
        // Writes still accepted: separate queue.
        assert!(mem.can_accept_write(0));
    }

    #[test]
    fn two_channel_parallelism() {
        let mut one = MemorySystem::new(DramConfig::table_iii());
        let mut two = MemorySystem::new(DramConfig::two_channel());
        // Issue the same burst of reads to both; the 2-channel system
        // should finish sooner.
        let finish = |mem: &mut MemorySystem| {
            for i in 0..32u64 {
                mem.enqueue_read(i * 64, 0).unwrap();
            }
            let mut now = 0;
            let mut done = Vec::new();
            while done.len() < 32 {
                mem.tick(now);
                mem.drain_completions_into(&mut done);
                now += 1;
            }
            done.iter().map(|c| c.finish).max().unwrap()
        };
        let t1 = finish(&mut one);
        let t2 = finish(&mut two);
        assert!(t2 < t1, "2 channels ({t2}) not faster than 1 ({t1})");
    }

    #[test]
    fn sustained_bandwidth_is_reasonable() {
        // 1000 row-hit reads back to back should approach one burst per
        // tBURST cycles (peak bus utilization), not one per row cycle.
        let cfg = DramConfig::table_iii().with_mapping(AddressMapping::Column);
        let mut mem = MemorySystem::new(cfg);
        let mut issued = 0u64;
        let mut done = Vec::new();
        let mut now = 0u64;
        while done.len() < 1000 {
            while issued < 1000 && mem.can_accept_read(issued * 64) {
                mem.enqueue_read(issued * 64, now).unwrap();
                issued += 1;
            }
            mem.tick(now);
            mem.drain_completions_into(&mut done);
            now += 1;
        }
        let last = done.iter().map(|c| c.finish).max().unwrap();
        let t = cfg.timing;
        // Perfect streaming would take ~1000 * t_burst cycles; allow 2x
        // slack for row crossings and refresh.
        assert!(
            last < 2 * 1000 * t.t_burst + 1000,
            "sustained bandwidth too low: {last} cycles for 1000 reads"
        );
        let s = mem.stats();
        assert!(s.row_hit_rate() > 0.9, "row hit rate {}", s.row_hit_rate());
    }
}
