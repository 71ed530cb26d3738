//! Per-tenant simulation: streamed records in, deterministic stats out.
//!
//! A tenant request is self-contained — identity, scheme, seed, and
//! the full virtual trace — so recomputing it after a client retry or
//! a daemon restart produces *byte-identical* stats. That
//! property is what the chaos drill's byte-identity assertion rests
//! on, and why the registry can treat re-completion as an idempotent
//! overwrite.

use itesp_snap::Persist;
use serde::Serialize;

use itesp_core::{EngineConfig, Scheme};
use itesp_dram::{AddressMapping, DramConfig};
use itesp_sim::{RasConfig, RunResult, System, SystemConfig};
use itesp_trace::{MultiProgram, TraceRecord};

use crate::error::ServeError;
use crate::protocol::Hello;

/// One admitted request, ready for a shard worker.
#[derive(Debug, Clone)]
pub struct TenantRequest {
    pub hello: Hello,
    pub records: Vec<TraceRecord>,
}

/// The deterministic per-tenant result. Every field is a pure function
/// of the request bytes; operational counters (rejects, panics) live
/// in the registry's separate, explicitly non-deterministic section.
/// Its field list is also the registry snapshot's per-tenant record.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Persist)]
pub struct TenantStats {
    pub tenant: u64,
    pub request_seq: u64,
    pub scheme: String,
    pub benchmark: String,
    pub records: u64,
    /// Execution time under the requested scheme, CPU cycles.
    pub cycles: u64,
    /// Execution time of the same trace under `Unsecure`.
    pub baseline_cycles: u64,
    /// `cycles / baseline_cycles` — the serving-side slowdown figure.
    pub slowdown: f64,
    /// Extra metadata transactions per data access.
    pub meta_per_access: f64,
    pub metadata_cache_accesses: u64,
    pub metadata_cache_hits: u64,
    pub parity_cache_accesses: u64,
    pub parity_cache_hits: u64,
    /// RAS counters (all zero when the request set `fault_rate` 0).
    pub ras_faults_injected: u64,
    pub ras_detections: u64,
    pub ras_corrections: u64,
    pub ras_sdc_events: u64,
    pub ras_due_events: u64,
}

/// Run one tenant request to completion on this shard.
///
/// # Errors
/// [`ServeError::UnknownScheme`] / [`ServeError::Engine`] for bad
/// parameters, [`ServeError::Trace`] for an empty trace.
pub fn run_tenant(req: &TenantRequest) -> Result<TenantStats, ServeError> {
    let scheme = Scheme::from_label(&req.hello.scheme)
        .map_err(|_| ServeError::UnknownScheme(req.hello.scheme.clone()))?;
    let mp = MultiProgram::from_virtual(
        vec![req.records.clone()],
        &req.hello.benchmark,
        req.hello.working_set_mb.max(1),
    )?;
    let result = run_scheme(&mp, scheme, &req.hello)?;
    let baseline = if scheme == Scheme::Unsecure {
        result.clone()
    } else {
        // The baseline is always fault-free: slowdown isolates the
        // security scheme's cost, not the RAS pipeline's.
        run_scheme(
            &mp,
            Scheme::Unsecure,
            &Hello {
                fault_rate: 0.0,
                ..req.hello.clone()
            },
        )?
    };
    Ok(TenantStats {
        tenant: req.hello.tenant,
        request_seq: req.hello.request_seq,
        scheme: req.hello.scheme.clone(),
        benchmark: req.hello.benchmark.clone(),
        records: req.records.len() as u64,
        cycles: result.cycles,
        baseline_cycles: baseline.cycles,
        slowdown: result.cycles as f64 / baseline.cycles.max(1) as f64,
        meta_per_access: result.engine.meta_per_access(),
        metadata_cache_accesses: result.metadata_cache.accesses,
        metadata_cache_hits: result.metadata_cache.hits,
        parity_cache_accesses: result.parity_cache.accesses,
        parity_cache_hits: result.parity_cache.hits,
        ras_faults_injected: result.ras.faults_injected,
        ras_detections: result.ras.detections,
        ras_corrections: result.ras.corrections,
        ras_sdc_events: result.ras.sdc_events,
        ras_due_events: result.ras.due_events,
    })
}

fn run_scheme(mp: &MultiProgram, scheme: Scheme, hello: &Hello) -> Result<RunResult, ServeError> {
    let dram = DramConfig::table_iii().with_mapping(AddressMapping::RowBufferHit4);
    let engine = EngineConfig::single_tenant(scheme, dram.geometry.capacity_bytes());
    engine
        .validate()
        .map_err(|e| ServeError::Engine(e.to_string()))?;
    let mut cfg = SystemConfig::table_iii(dram, engine);
    if hello.fault_rate > 0.0 {
        cfg = cfg.with_ras(RasConfig::new(hello.seed).with_fault_rate(hello.fault_rate));
    }
    Ok(System::new(cfg, mp).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::PROTOCOL_VERSION;
    use itesp_trace::{benchmark, WorkloadGen};

    fn request(tenant: u64, scheme: &str, ops: usize) -> TenantRequest {
        let b = benchmark("mcf").unwrap();
        let records: Vec<TraceRecord> = WorkloadGen::for_benchmark(b, 11).take(ops).collect();
        TenantRequest {
            hello: Hello {
                version: PROTOCOL_VERSION,
                tenant,
                request_seq: 1,
                seed: 5,
                scheme: scheme.into(),
                benchmark: "mcf".into(),
                working_set_mb: b.working_set_mb,
                fault_rate: 0.0,
            },
            records,
        }
    }

    #[test]
    fn recomputation_is_byte_identical() {
        let req = request(1, "ITESP", 400);
        let a = run_tenant(&req).unwrap();
        let b = run_tenant(&req).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string_pretty(&a).unwrap(),
            serde_json::to_string_pretty(&b).unwrap()
        );
        assert!(a.slowdown >= 1.0, "secured scheme at least as slow");
        assert_eq!(a.records, 400);
    }

    #[test]
    fn unsecure_baseline_has_unit_slowdown() {
        let s = run_tenant(&request(2, "Unsecure", 300)).unwrap();
        assert_eq!(s.cycles, s.baseline_cycles);
        assert!((s.slowdown - 1.0).abs() < 1e-12);
        assert_eq!(s.meta_per_access, 0.0);
    }

    #[test]
    fn bad_parameters_are_typed_errors() {
        let mut req = request(3, "NotAScheme", 50);
        assert!(matches!(
            run_tenant(&req),
            Err(ServeError::UnknownScheme(_))
        ));
        req.hello.scheme = "ITESP".into();
        req.records.clear();
        // An empty trace still simulates (zero ops) rather than
        // erroring: the mapper accepts an empty program.
        let s = run_tenant(&req).unwrap();
        assert_eq!(s.records, 0);
    }

    #[test]
    fn ras_counters_populate_under_fault_injection() {
        let mut req = request(4, "ITESP", 600);
        // Rate is per million DRAM cycles; a 600-op trace runs for a
        // short cycle count, so inject aggressively to guarantee hits.
        req.hello.fault_rate = 1e5;
        let s = run_tenant(&req).unwrap();
        assert!(
            s.ras_faults_injected > 0,
            "fault rate 1e5/Mcycle over 600 ops"
        );
        // And the run stays deterministic under injection.
        assert_eq!(s, run_tenant(&req).unwrap());
    }
}
