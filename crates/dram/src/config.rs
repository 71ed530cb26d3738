//! DRAM configuration: geometry, timing, and power parameters.
//!
//! Defaults reproduce Table III of the paper: a Micron DDR3-1600 part,
//! 64 GB on one channel organized as 16 ranks of 8 banks each, with the
//! timing constraints listed there (in DRAM cycles at 800 MHz).

use serde::Serialize;

use crate::address::AddressMapping;

/// Size of a cache block / DRAM burst in bytes.
pub const BLOCK_BYTES: u64 = 64;
/// log2 of [`BLOCK_BYTES`].
pub const BLOCK_SHIFT: u32 = 6;

/// Why a DRAM configuration is invalid.
///
/// Returned by the validating constructors ([`DramGeometry::validated`],
/// [`DramConfig::new`]); the preset constructors (`table_iii` etc.) are
/// valid by construction and stay infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A geometry field that feeds address-bit slicing is not a power
    /// of two.
    NotPowerOfTwo { field: &'static str, value: u32 },
    /// A field that must be positive is zero.
    Zero { field: &'static str },
    /// Write-drain watermarks are inconsistent with the queue capacity.
    BadWatermarks {
        high: usize,
        low: usize,
        capacity: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(
                    f,
                    "DRAM geometry field {field} must be a power of two, got {value}"
                )
            }
            ConfigError::Zero { field } => {
                write!(f, "DRAM configuration field {field} must be positive")
            }
            ConfigError::BadWatermarks {
                high,
                low,
                capacity,
            } => write!(
                f,
                "write-drain watermarks must satisfy low < high <= write queue capacity, \
                 got low {low}, high {high}, capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Physical organization of the memory system.
///
/// The derived bit-widths (rank/bank/row/column) are used by the address
/// mapping policies in [`crate::address`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramGeometry {
    /// Independent memory channels, each with its own command/data bus.
    pub channels: u32,
    /// Ranks per channel (sets of chips sharing a chip-select).
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Cache blocks per row (row size / 64 B).
    pub blocks_per_row: u32,
    /// DRAM chips participating in one rank (x8 parts: 8 data + 1 ECC).
    pub chips_per_rank: u32,
}

impl DramGeometry {
    /// Table III configuration: 64 GB, 1 channel, 16 ranks.
    ///
    /// 16 ranks x 8 banks x 64 K rows x 128 blocks x 64 B = 64 GB.
    pub fn table_iii() -> Self {
        DramGeometry {
            channels: 1,
            ranks_per_channel: 16,
            banks_per_rank: 8,
            rows_per_bank: 1 << 16,
            blocks_per_row: 128,
            chips_per_rank: 9,
        }
    }

    /// The 8-core sensitivity configuration: two channels (Section V-B).
    pub fn two_channel() -> Self {
        DramGeometry {
            channels: 2,
            ..Self::table_iii()
        }
    }

    /// Validate a hand-built geometry: every field that feeds address
    /// slicing must be a nonzero power of two, and the chip count must
    /// be positive.
    ///
    /// # Errors
    /// Names the offending field.
    pub fn validated(self) -> Result<Self, ConfigError> {
        let pow2_fields = [
            ("channels", self.channels),
            ("ranks_per_channel", self.ranks_per_channel),
            ("banks_per_rank", self.banks_per_rank),
            ("rows_per_bank", self.rows_per_bank),
            ("blocks_per_row", self.blocks_per_row),
        ];
        for (field, value) in pow2_fields {
            if value == 0 {
                return Err(ConfigError::Zero { field });
            }
            if !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field, value });
            }
        }
        if self.chips_per_rank == 0 {
            return Err(ConfigError::Zero {
                field: "chips_per_rank",
            });
        }
        Ok(self)
    }

    /// Total capacity in bytes across all channels.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.channels)
            * u64::from(self.ranks_per_channel)
            * u64::from(self.banks_per_rank)
            * u64::from(self.rows_per_bank)
            * u64::from(self.blocks_per_row)
            * BLOCK_BYTES
    }

    /// Total cache blocks across all channels.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_bytes() / BLOCK_BYTES
    }

    /// Number of address bits consumed by the channel field.
    pub fn channel_bits(&self) -> u32 {
        log2_exact(self.channels)
    }

    /// Number of address bits consumed by the rank field.
    pub fn rank_bits(&self) -> u32 {
        log2_exact(self.ranks_per_channel)
    }

    /// Number of address bits consumed by the bank field.
    pub fn bank_bits(&self) -> u32 {
        log2_exact(self.banks_per_rank)
    }

    /// Number of address bits consumed by the row field.
    pub fn row_bits(&self) -> u32 {
        log2_exact(self.rows_per_bank)
    }

    /// Number of address bits consumed by the column (block-in-row) field.
    pub fn column_bits(&self) -> u32 {
        log2_exact(self.blocks_per_row)
    }

    /// Total DRAM devices in the memory system (used by the reliability
    /// model; Table II assumes 288 devices).
    pub fn total_devices(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.chips_per_rank
    }
}

fn log2_exact(v: u32) -> u32 {
    assert!(v.is_power_of_two(), "geometry fields must be powers of two");
    v.trailing_zeros()
}

/// DDR3 timing constraints, in DRAM (bus-clock) cycles.
///
/// Field names follow the JEDEC parameters quoted in Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DramTiming {
    /// ACT-to-ACT, same bank (row cycle time).
    pub t_rc: u64,
    /// ACT-to-RD/WR, same bank.
    pub t_rcd: u64,
    /// ACT-to-PRE, same bank.
    pub t_ras: u64,
    /// Four-activate window, per rank.
    pub t_faw: u64,
    /// Write recovery: end of write burst to PRE.
    pub t_wr: u64,
    /// PRE-to-ACT, same bank.
    pub t_rp: u64,
    /// Rank-to-rank data-bus switch penalty.
    pub t_rtrs: u64,
    /// RD command to first data beat (CAS latency).
    pub t_cas: u64,
    /// RD-to-PRE, same bank.
    pub t_rtp: u64,
    /// Column-to-column command spacing.
    pub t_ccd: u64,
    /// End of write burst to RD, same rank.
    pub t_wtr: u64,
    /// ACT-to-ACT, different banks same rank.
    pub t_rrd: u64,
    /// Average refresh interval, per rank.
    pub t_refi: u64,
    /// Refresh cycle time (rank blocked).
    pub t_rfc: u64,
    /// WR command to first data beat (CAS write latency).
    pub t_cwd: u64,
    /// Data burst duration (8 beats = 4 clocks for DDR).
    pub t_burst: u64,
}

impl DramTiming {
    /// Table III timings for DDR3-1600 (800 MHz clock, 1.25 ns cycle).
    pub fn ddr3_1600() -> Self {
        DramTiming {
            t_rc: 39,
            t_rcd: 11,
            t_ras: 28,
            t_faw: 20,
            t_wr: 12,
            t_rp: 11,
            t_rtrs: 2,
            t_cas: 11,
            t_rtp: 6,
            t_ccd: 4,
            t_wtr: 6,
            t_rrd: 5,
            // 7.8 us at 1.25 ns/cycle.
            t_refi: 6240,
            // 640 ns at 1.25 ns/cycle.
            t_rfc: 512,
            t_cwd: 8,
            t_burst: 4,
        }
    }

    /// Read latency from RD issue to the last data beat.
    pub fn read_latency(&self) -> u64 {
        self.t_cas + self.t_burst
    }

    /// Write latency from WR issue to the last data beat.
    pub fn write_latency(&self) -> u64 {
        self.t_cwd + self.t_burst
    }
}

/// Energy parameters for the Micron-style power model, in picojoules
/// (per event) and milliwatts (background), for one rank of x8 devices.
///
/// Values are derived from the Micron DDR3 power calculator methodology
/// (IDD0/IDD4R/IDD4W/IDD2P/IDD5) for a 2 Gb DDR3-1600 part; what matters
/// for the paper's Figure 10 trends is the activate/read/write/background
/// decomposition, not absolute calibration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PowerParams {
    /// Energy of one ACT+PRE pair, per rank (pJ).
    pub act_pre_energy_pj: f64,
    /// Energy of one read burst, per rank, incl. I/O (pJ).
    pub read_energy_pj: f64,
    /// Energy of one write burst, per rank, incl. ODT (pJ).
    pub write_energy_pj: f64,
    /// Energy of one refresh cycle, per rank (pJ).
    pub refresh_energy_pj: f64,
    /// Background power per rank (mW), averaged over power-down states.
    pub background_mw: f64,
    /// DRAM clock period in nanoseconds.
    pub clock_ns: f64,
}

impl PowerParams {
    /// Defaults for a 16-rank DDR3-1600 channel of x8 parts.
    pub fn ddr3_1600() -> Self {
        PowerParams {
            act_pre_energy_pj: 2500.0,
            read_energy_pj: 1800.0,
            write_energy_pj: 1900.0,
            refresh_energy_pj: 24000.0,
            background_mw: 120.0,
            clock_ns: 1.25,
        }
    }
}

/// Read/write queue sizing and scheduler thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct QueueConfig {
    /// Read queue capacity per channel (Table III: 48).
    pub read_queue: usize,
    /// Write queue capacity per channel (Table III: 48).
    pub write_queue: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub write_high_watermark: usize,
    /// Leave write-drain mode at this write-queue occupancy.
    pub write_low_watermark: usize,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            read_queue: 48,
            write_queue: 48,
            write_high_watermark: 40,
            write_low_watermark: 20,
        }
    }
}

/// Complete memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DramConfig {
    pub geometry: DramGeometry,
    pub timing: DramTiming,
    pub power: PowerParams,
    pub queues: QueueConfig,
    pub mapping: AddressMapping,
}

impl QueueConfig {
    /// Validate queue sizing: capacities positive, watermarks ordered
    /// and within the write-queue capacity.
    ///
    /// # Errors
    /// Names the offending field or watermark pair.
    pub fn validated(self) -> Result<Self, ConfigError> {
        if self.read_queue == 0 {
            return Err(ConfigError::Zero {
                field: "read_queue",
            });
        }
        if self.write_queue == 0 {
            return Err(ConfigError::Zero {
                field: "write_queue",
            });
        }
        if self.write_low_watermark >= self.write_high_watermark
            || self.write_high_watermark > self.write_queue
        {
            return Err(ConfigError::BadWatermarks {
                high: self.write_high_watermark,
                low: self.write_low_watermark,
                capacity: self.write_queue,
            });
        }
        Ok(self)
    }
}

impl DramConfig {
    /// The paper's 4-core baseline: Table III with one channel.
    pub fn table_iii() -> Self {
        DramConfig {
            geometry: DramGeometry::table_iii(),
            timing: DramTiming::ddr3_1600(),
            power: PowerParams::ddr3_1600(),
            queues: QueueConfig::default(),
            mapping: AddressMapping::RowBufferHit4,
        }
    }

    /// The 8-core sensitivity configuration (two channels).
    pub fn two_channel() -> Self {
        DramConfig {
            geometry: DramGeometry::two_channel(),
            ..Self::table_iii()
        }
    }

    /// Build and validate a complete configuration from hand-picked
    /// parts (the presets above are valid by construction).
    ///
    /// # Errors
    /// Names the first invalid field.
    pub fn new(
        geometry: DramGeometry,
        timing: DramTiming,
        power: PowerParams,
        queues: QueueConfig,
        mapping: AddressMapping,
    ) -> Result<Self, ConfigError> {
        let geometry = geometry.validated()?;
        let queues = queues.validated()?;
        if timing.t_burst == 0 {
            return Err(ConfigError::Zero { field: "t_burst" });
        }
        Ok(DramConfig {
            geometry,
            timing,
            power,
            queues,
            mapping,
        })
    }

    /// Same configuration with a different address mapping policy.
    pub fn with_mapping(mut self, mapping: AddressMapping) -> Self {
        self.mapping = mapping;
        self
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::table_iii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_capacity_is_64_gb() {
        let g = DramGeometry::table_iii();
        assert_eq!(g.capacity_bytes(), 64 << 30);
        assert_eq!(g.capacity_blocks(), 1 << 30);
    }

    #[test]
    fn two_channel_capacity_is_128_gb() {
        let g = DramGeometry::two_channel();
        assert_eq!(g.capacity_bytes(), 128 << 30);
    }

    #[test]
    fn bit_widths_sum_to_address_bits() {
        let g = DramGeometry::table_iii();
        let total =
            g.channel_bits() + g.rank_bits() + g.bank_bits() + g.row_bits() + g.column_bits();
        assert_eq!(1u64 << (total + BLOCK_SHIFT), g.capacity_bytes());
    }

    #[test]
    fn table_iii_devices() {
        // 16 ranks x 9 chips x 2 channels = 288 devices for the two-channel
        // system, matching the Table II reliability analysis.
        assert_eq!(DramGeometry::two_channel().total_devices(), 288);
    }

    #[test]
    fn timing_latencies() {
        let t = DramTiming::ddr3_1600();
        assert_eq!(t.read_latency(), 15);
        assert_eq!(t.write_latency(), 12);
    }

    #[test]
    fn presets_pass_validation() {
        for cfg in [DramConfig::table_iii(), DramConfig::two_channel()] {
            DramConfig::new(cfg.geometry, cfg.timing, cfg.power, cfg.queues, cfg.mapping)
                .expect("preset configuration must validate");
        }
    }

    #[test]
    fn invalid_geometry_names_the_field() {
        let g = DramGeometry {
            ranks_per_channel: 12,
            ..DramGeometry::table_iii()
        };
        match g.validated() {
            Err(ConfigError::NotPowerOfTwo { field, value }) => {
                assert_eq!(field, "ranks_per_channel");
                assert_eq!(value, 12);
            }
            other => panic!("expected NotPowerOfTwo, got {other:?}"),
        }
        let g = DramGeometry {
            chips_per_rank: 0,
            ..DramGeometry::table_iii()
        };
        assert_eq!(
            g.validated(),
            Err(ConfigError::Zero {
                field: "chips_per_rank"
            })
        );
    }

    #[test]
    fn inverted_watermarks_rejected() {
        let q = QueueConfig {
            write_high_watermark: 10,
            write_low_watermark: 20,
            ..QueueConfig::default()
        };
        match q.validated() {
            Err(ConfigError::BadWatermarks { high, low, .. }) => {
                assert_eq!((high, low), (10, 20));
            }
            other => panic!("expected BadWatermarks, got {other:?}"),
        }
        // Errors render with the field context for operator reports.
        let msg = q.validated().unwrap_err().to_string();
        assert!(msg.contains("low 20"), "{msg}");
    }

    #[test]
    fn refresh_interval_matches_7_8_us() {
        let t = DramTiming::ddr3_1600();
        let p = PowerParams::ddr3_1600();
        let us = t.t_refi as f64 * p.clock_ns / 1000.0;
        assert!((us - 7.8).abs() < 0.01);
    }
}
