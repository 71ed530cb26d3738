//! Whole-stack protocol validation: cores → security engine → DRAM.
//!
//! Full-system runs (trace replay through the security engine into the
//! multi-channel memory system, including metadata traffic, write
//! drains, idle clock jumps, and refresh) record every DRAM command,
//! and the independent Table III protocol checker validates each
//! channel's log.

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::DramConfig;
use itesp_oracle::ProtocolChecker;
use itesp_sim::{System, SystemConfig};
use itesp_trace::{benchmark, MultiProgram};

fn check_system(dram: DramConfig, scheme: Scheme, bench: &str, ops: usize) {
    let mp = MultiProgram::homogeneous(benchmark(bench).unwrap(), 2, ops, 7);
    let engine = EngineConfig {
        enclaves: 2,
        ..EngineConfig::paper_default(scheme)
    };
    let cfg = SystemConfig::table_iii(dram, engine);
    let (result, logs, end) = System::new(cfg, &mp).run_logged();
    assert!(result.cycles > 0);
    assert_eq!(logs.len(), dram.geometry.channels as usize);
    for (ch, log) in logs.iter().enumerate() {
        assert!(
            !log.is_empty(),
            "[{scheme:?}] channel {ch} issued no commands"
        );
        if let Err(v) = ProtocolChecker::check_log(dram, log, end) {
            panic!("[{scheme:?}] channel {ch}: {v}");
        }
    }
}

/// The unsecure baseline on the paper's single-channel Table III system.
#[test]
fn full_stack_obeys_protocol_unsecure() {
    check_system(DramConfig::table_iii(), Scheme::Unsecure, "mcf", 1200);
}

/// Tree + MAC + embedded-parity metadata traffic interleaved with demand
/// traffic across two channels.
#[test]
fn full_stack_obeys_protocol_itesp_two_channel() {
    check_system(DramConfig::two_channel(), Scheme::Itesp, "mcf", 1200);
}

/// The heaviest metadata scheme (separate MACs, per-block parity) with a
/// write-heavy benchmark: exercises write drains and metadata writebacks.
#[test]
fn full_stack_obeys_protocol_itsynergy_write_heavy() {
    check_system(DramConfig::two_channel(), Scheme::ItSynergy, "lbm", 1000);
}
