//! Micron-style DRAM energy accounting.
//!
//! Converts [`ChannelStats`] event counts plus elapsed time into energy,
//! with the standard decomposition: activate/precharge energy, read and
//! write burst energy, refresh energy, and per-rank background power.
//! Used to reproduce the memory-energy and EDP trends of Figure 10/12/13.

use itesp_snap::Persist;
use serde::Serialize;

use crate::command::ChannelStats;
use crate::config::{DramConfig, PowerParams};

/// Energy breakdown for one simulation run, in nanojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Persist)]
pub struct EnergyBreakdown {
    pub activate_nj: f64,
    pub read_nj: f64,
    pub write_nj: f64,
    pub refresh_nj: f64,
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Total memory energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.activate_nj + self.read_nj + self.write_nj + self.refresh_nj + self.background_nj
    }

    /// Total memory energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }
}

/// Compute the energy for a run of `cycles` DRAM cycles on a system with
/// the given configuration, from the merged channel statistics.
pub fn energy_for_run(cfg: &DramConfig, stats: &ChannelStats, cycles: u64) -> EnergyBreakdown {
    let p: &PowerParams = &cfg.power;
    let ranks = f64::from(cfg.geometry.ranks_per_channel * cfg.geometry.channels);
    let seconds = cycles as f64 * p.clock_ns * 1e-9;
    EnergyBreakdown {
        activate_nj: stats.activates as f64 * p.act_pre_energy_pj * 1e-3,
        read_nj: stats.reads as f64 * p.read_energy_pj * 1e-3,
        write_nj: stats.writes as f64 * p.write_energy_pj * 1e-3,
        refresh_nj: stats.refreshes as f64 * p.refresh_energy_pj * 1e-3,
        // mW x s = mJ = 1e6 nJ.
        background_nj: p.background_mw * ranks * seconds * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_events() {
        let cfg = DramConfig::table_iii();
        let s1 = ChannelStats {
            reads: 1000,
            writes: 500,
            activates: 800,
            refreshes: 10,
            ..Default::default()
        };
        let mut s2 = s1;
        s2.reads *= 2;
        let e1 = energy_for_run(&cfg, &s1, 100_000);
        let e2 = energy_for_run(&cfg, &s2, 100_000);
        assert!(e2.read_nj > e1.read_nj);
        assert_eq!(e2.activate_nj, e1.activate_nj);
        assert!(e2.total_nj() > e1.total_nj());
    }

    #[test]
    fn background_scales_with_time_not_events() {
        let cfg = DramConfig::table_iii();
        let s = ChannelStats::default();
        let e1 = energy_for_run(&cfg, &s, 100_000);
        let e2 = energy_for_run(&cfg, &s, 200_000);
        assert!((e2.background_nj / e1.background_nj - 2.0).abs() < 1e-9);
        assert_eq!(e1.read_nj, 0.0);
    }

    #[test]
    fn totals_add_up() {
        let e = EnergyBreakdown {
            activate_nj: 1.0,
            read_nj: 2.0,
            write_nj: 3.0,
            refresh_nj: 4.0,
            background_nj: 5.0,
        };
        assert_eq!(e.total_nj(), 15.0);
        assert!((e.total_mj() - 15.0e-6).abs() < 1e-15);
    }
}
