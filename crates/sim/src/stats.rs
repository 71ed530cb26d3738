//! Run results and the derived metrics the figures plot.

use itesp_snap::Persist;
use serde::Serialize;

use itesp_core::{CacheStats, EngineStats, SecurityEngine};
use itesp_dram::{ChannelStats, EnergyBreakdown, MemorySystem};
use itesp_enclave::LifecycleStats;

use crate::ras::RasStats;
use crate::system::CPU_PER_DRAM_CYCLE;

/// Everything measured in one simulation run.
#[derive(Debug, Clone, Default, Serialize, Persist)]
pub struct RunResult {
    /// Total execution time in CPU cycles (last core to finish).
    pub cycles: u64,
    /// Per-core finish times, CPU cycles.
    pub core_finish: Vec<u64>,
    /// Security-engine traffic statistics.
    pub engine: EngineStats,
    /// Metadata-cache statistics (tree + MAC merged).
    pub metadata_cache: CacheStats,
    /// Parity-cache statistics (zeroes when the scheme has none).
    pub parity_cache: CacheStats,
    /// Merged DRAM channel statistics.
    pub dram: ChannelStats,
    /// Memory energy breakdown for the run.
    pub energy: EnergyBreakdown,
    /// Writes emitted by the end-of-run metadata drain (bookkeeping).
    pub drained_writes: u64,
    /// Online RAS pipeline statistics (all zeros when RAS was off).
    pub ras: RasStats,
    /// Enclave lifecycle statistics (all zeros for static workloads).
    pub churn: LifecycleStats,
}

impl RunResult {
    /// Gather results from the simulator's components.
    pub fn collect(
        cycles: u64,
        core_finish: Vec<u64>,
        engine: &SecurityEngine,
        mem: &MemorySystem,
        drained_writes: u64,
        ras: RasStats,
        churn: LifecycleStats,
    ) -> Self {
        let dram_cycles = cycles / CPU_PER_DRAM_CYCLE;
        RunResult {
            cycles,
            core_finish,
            engine: engine.stats().clone(),
            metadata_cache: engine.metadata_cache_stats(),
            parity_cache: engine.parity_cache_stats(),
            dram: mem.stats(),
            energy: mem.energy(dram_cycles),
            drained_writes,
            ras,
            churn,
        }
    }

    /// Execution time normalized to a baseline run (Figure 8's y-axis).
    pub fn normalized_time(&self, baseline: &RunResult) -> f64 {
        self.cycles as f64 / baseline.cycles.max(1) as f64
    }

    /// Memory energy normalized to a baseline run (Figure 10, left).
    pub fn normalized_memory_energy(&self, baseline: &RunResult) -> f64 {
        self.energy.total_nj() / baseline.energy.total_nj().max(f64::MIN_POSITIVE)
    }

    /// System energy-delay product, normalized (Figure 10, right).
    /// System power follows the Memory Scheduling Championship
    /// convention: a fixed core-side power plus measured memory power.
    pub fn normalized_system_edp(&self, baseline: &RunResult, cores: usize) -> f64 {
        self.system_edp(cores) / baseline.system_edp(cores).max(f64::MIN_POSITIVE)
    }

    /// Absolute system EDP in (nJ x cycles) units.
    pub fn system_edp(&self, cores: usize) -> f64 {
        self.system_energy_nj(cores) * self.cycles as f64
    }

    /// System energy: 10 W per core plus memory energy.
    pub fn system_energy_nj(&self, cores: usize) -> f64 {
        // CPU cycle at 3.2 GHz = 0.3125 ns; 10 W = 10 nJ per 1e9 ns.
        let seconds = self.cycles as f64 * 0.3125e-9;
        let core_nj = 10.0 * cores as f64 * seconds * 1e9;
        core_nj + self.energy.total_nj()
    }

    /// Geometric-mean helper used when averaging normalized metrics
    /// across benchmarks (the convention for ratios).
    pub fn geomean(values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
        (log_sum / values.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cycles: u64, energy_nj: f64) -> RunResult {
        RunResult {
            cycles,
            core_finish: vec![cycles],
            engine: EngineStats::default(),
            metadata_cache: CacheStats::default(),
            parity_cache: CacheStats::default(),
            dram: ChannelStats::default(),
            energy: EnergyBreakdown {
                activate_nj: energy_nj,
                ..Default::default()
            },
            drained_writes: 0,
            ras: RasStats::default(),
            churn: LifecycleStats::default(),
        }
    }

    #[test]
    fn normalization_is_a_ratio() {
        let base = result(1000, 50.0);
        let slow = result(2300, 80.0);
        assert!((slow.normalized_time(&base) - 2.3).abs() < 1e-9);
        assert!((slow.normalized_memory_energy(&base) - 1.6).abs() < 1e-9);
    }

    #[test]
    fn edp_scales_quadratically_with_time() {
        let base = result(1000, 0.0);
        let slow = result(2000, 0.0);
        // Same power, double time -> double energy -> 4x EDP.
        let edp = slow.normalized_system_edp(&base, 4);
        assert!((edp - 4.0).abs() < 1e-9);
    }

    #[test]
    fn geomean_of_identical_values() {
        assert!((RunResult::geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(RunResult::geomean(&[]), 0.0);
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let g = RunResult::geomean(&[1.0, 4.0]);
        assert!(g > 1.0 && g < 4.0);
        assert!((g - 2.0).abs() < 1e-12);
    }
}
