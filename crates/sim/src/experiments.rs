//! Canned experiment configurations for every figure and table.
//!
//! Each figure regenerator in `itesp-bench` calls these helpers so the
//! parameters live in one place and match Section IV:
//!
//! * 4 cores, 1 channel (8 cores, 2 channels for the sensitivity runs);
//! * 64 KB total metadata cache (16 KB per enclave when isolated);
//! * 4 copies of the same benchmark per run;
//! * traces of N memory operations per program (the paper uses 5 M; the
//!   regenerators default lower so a full sweep finishes in minutes —
//!   the *relative* results are stable well below 5 M).

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::{AddressMapping, DramConfig};
use itesp_trace::{Benchmark, ChurnWorkload, MultiProgram};

use crate::ras::RasConfig;
use crate::stats::RunResult;
use crate::system::{RunError, System, SystemConfig};

/// Parameters of one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentParams {
    pub scheme: Scheme,
    /// Program copies = cores = enclaves.
    pub copies: usize,
    /// Memory operations per program.
    pub ops: usize,
    /// DRAM channels (1 for 4 cores, 2 for 8 cores).
    pub channels: u32,
    /// Total metadata cache bytes (all cores).
    pub metadata_cache_bytes: usize,
    pub mapping: AddressMapping,
    /// Model local-counter overflow stalls (Figure 11).
    pub model_overflow: bool,
    /// Trace RNG seed.
    pub seed: u64,
}

impl ExperimentParams {
    /// The paper's main configuration for `scheme` (Figure 8): 4 cores,
    /// 1 channel, 64 KB metadata cache, 4-RBH mapping.
    pub fn paper_4core(scheme: Scheme, ops: usize) -> Self {
        ExperimentParams {
            scheme,
            copies: 4,
            ops,
            channels: 1,
            metadata_cache_bytes: 64 << 10,
            mapping: AddressMapping::RowBufferHit4,
            model_overflow: false,
            seed: 0xC0FFEE,
        }
    }

    /// The 8-core, 2-channel sensitivity configuration (Figures 11/12).
    pub fn paper_8core(scheme: Scheme, ops: usize) -> Self {
        ExperimentParams {
            copies: 8,
            channels: 2,
            metadata_cache_bytes: 128 << 10,
            ..Self::paper_4core(scheme, ops)
        }
    }

    fn dram_config(&self) -> DramConfig {
        let base = if self.channels == 2 {
            DramConfig::two_channel()
        } else {
            DramConfig::table_iii()
        };
        base.with_mapping(self.mapping)
    }

    /// Rank-rotation stride in blocks implied by the mapping (how many
    /// consecutive blocks share a rank — decides parity grouping).
    fn rank_stride_blocks(&self, dram: &DramConfig) -> u64 {
        match self.mapping {
            AddressMapping::Rank => 1,
            AddressMapping::RowBufferHit2 => 2,
            AddressMapping::RowBufferHit4 => 4,
            AddressMapping::Column => {
                u64::from(dram.geometry.blocks_per_row) * u64::from(dram.geometry.banks_per_rank)
            }
        }
    }

    /// The Table III system these parameters describe, RAS off.
    pub fn system_config(&self) -> SystemConfig {
        let dram = self.dram_config();
        SystemConfig::table_iii(dram, self.engine_config(&dram))
    }

    fn engine_config(&self, dram: &DramConfig) -> EngineConfig {
        EngineConfig {
            scheme: self.scheme,
            enclaves: self.copies,
            // The shared tree covers the whole installed memory; each
            // isolated tree covers an equal share.
            data_capacity: dram.geometry.capacity_bytes(),
            enclave_capacity: dram.geometry.capacity_bytes() / self.copies as u64,
            metadata_cache_bytes: self.metadata_cache_bytes,
            cache_ways: 8,
            model_overflow: self.model_overflow,
            rank_stride_blocks: self.rank_stride_blocks(dram),
        }
    }
}

/// Run one benchmark under one parameter set.
pub fn run_experiment(bench: &Benchmark, p: ExperimentParams) -> RunResult {
    let mp = MultiProgram::homogeneous(bench, p.copies, p.ops, p.seed);
    run_workload(&mp, p)
}

/// Run a pre-built workload under one parameter set (used when several
/// schemes must see the *same* trace).
pub fn run_workload(mp: &MultiProgram, p: ExperimentParams) -> RunResult {
    System::new(p.system_config(), mp).run()
}

/// Run a churn schedule: cores start idle and the lifecycle driver
/// admits, grows, shrinks, and destroys enclave sessions as their
/// arrival clocks pass, charging every transition as metadata DRAM
/// traffic. The parameter set's `seed` keys page placement and
/// per-enclave MAC keys; its `copies` must match the schedule's slots.
pub fn run_workload_churn(w: &ChurnWorkload, p: ExperimentParams) -> RunResult {
    System::new_churn(p.system_config(), w, p.seed).run()
}

/// Build (without running) the churn+RAS system the crash-recovery
/// drill exercises: enclave lifecycle churn with the online fault
/// pipeline active. The caller attaches a snapshot sink and/or
/// restores state before calling [`System::try_run`].
pub fn build_churn_ras_system(w: &ChurnWorkload, p: ExperimentParams, ras: RasConfig) -> System {
    System::new_churn(p.system_config().with_ras(ras), w, p.seed)
}

/// Run a pre-built workload with the online RAS pipeline enabled.
///
/// # Errors
/// [`RunError::Ras`] with the first fatal RAS error when
/// [`RasConfig::halt_on_due`] is set.
pub fn run_workload_ras(
    mp: &MultiProgram,
    p: ExperimentParams,
    ras: RasConfig,
) -> Result<RunResult, RunError> {
    System::new(p.system_config().with_ras(ras), mp).try_run()
}

/// Run one benchmark by name.
///
/// # Panics
/// Panics if the name is not in Table IV; see [`try_run_named`] for the
/// non-panicking variant.
pub fn run_named(name: &str, p: ExperimentParams) -> RunResult {
    try_run_named(name, p).unwrap_or_else(|e| panic!("{}", itesp_core::error::render_chain(&e)))
}

/// Run one benchmark by name, reporting bad input as a typed error.
///
/// # Errors
/// [`itesp_core::Error`] for an unknown benchmark or a parameter set the
/// engine rejects.
pub fn try_run_named(name: &str, p: ExperimentParams) -> Result<RunResult, itesp_core::Error> {
    let b = itesp_trace::benchmark_or_err(name)?;
    let dram = p.dram_config();
    p.engine_config(&dram)
        .validate()
        .map_err(itesp_core::Error::Engine)?;
    Ok(run_experiment(b, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_core_defaults_match_section_iv() {
        let p = ExperimentParams::paper_4core(Scheme::Itesp, 1000);
        assert_eq!(p.copies, 4);
        assert_eq!(p.channels, 1);
        assert_eq!(p.metadata_cache_bytes, 64 << 10);
        let dram = p.dram_config();
        let e = p.engine_config(&dram);
        // 16 KB per enclave for the isolated designs.
        assert_eq!(e.metadata_cache_bytes / e.enclaves, 16 << 10);
        assert_eq!(e.rank_stride_blocks, 4);
    }

    #[test]
    fn eight_core_uses_two_channels() {
        let p = ExperimentParams::paper_8core(Scheme::Synergy, 1000);
        assert_eq!(p.dram_config().geometry.channels, 2);
        assert_eq!(p.copies, 8);
    }

    #[test]
    fn column_mapping_has_large_rank_stride() {
        let mut p = ExperimentParams::paper_4core(Scheme::Itesp, 100);
        p.mapping = AddressMapping::Column;
        let dram = p.dram_config();
        assert_eq!(p.rank_stride_blocks(&dram), 1024);
    }

    #[test]
    fn small_run_executes_end_to_end() {
        let r = run_named("lbm", ExperimentParams::paper_4core(Scheme::Itesp, 300));
        assert_eq!(r.engine.data_accesses(), 1200);
        assert!(r.cycles > 0);
    }
}
