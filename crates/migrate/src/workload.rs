//! Cluster workloads: one scripted op stream per tenant.
//!
//! The cluster flattens a [`ChurnWorkload`] (per-slot session queues)
//! into a single FIFO arrival order — the flattening fixes the
//! cluster-global tenant ids, so tenant *t* is the same session (and
//! derives the same MAC key) in every topology, which is what makes a
//! 1-node reference run comparable byte-for-byte with a 4-node
//! cluster run.

use std::sync::Arc;

use itesp_trace::{ChurnWorkload, MemOp, PageFree};

/// One script op in 8 bytes: a block-aligned virtual address with the
/// write flag in bit 0. The cluster has no use for a trace record's
/// `gap` (a tick is one op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptOp(u64);

impl ScriptOp {
    /// # Panics
    /// If `vaddr` has bit 0 set (it is not block aligned).
    pub fn new(vaddr: u64, op: MemOp) -> Self {
        assert_eq!(vaddr & 1, 0, "script vaddr {vaddr:#x} is not block aligned");
        ScriptOp(vaddr | u64::from(op == MemOp::Write))
    }

    pub fn vaddr(self) -> u64 {
        self.0 & !1
    }

    pub fn is_write(self) -> bool {
        self.0 & 1 == 1
    }
}

/// One tenant's script: when it may arrive and what it does.
#[derive(Debug, Clone)]
pub struct TenantScript {
    /// Earliest cluster tick the tenant may be admitted.
    pub arrival: u64,
    pub footprint_pages: u64,
    pub records: Vec<ScriptOp>,
    /// Sorted by `after_record`.
    pub frees: Vec<PageFree>,
}

/// The full cluster workload; index = cluster-global tenant id. The
/// scripts are shared, so a clone handed to another cluster (a
/// reference run, a recovery) copies no ops.
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    pub name: String,
    pub tenants: Arc<[TenantScript]>,
}

impl ClusterWorkload {
    /// Flatten a churn schedule into tenant scripts. Arrival times are
    /// CPU cycles in the churn model; `ticks_per_cycle_shift` right-
    /// shifts them into cluster ticks (tick granularity is one op), so
    /// a larger shift compresses arrivals and raises concurrency.
    pub fn from_churn(w: &ChurnWorkload, ticks_per_cycle_shift: u32) -> Self {
        let tenants = w
            .arrival_order()
            .iter()
            .map(|a| {
                let s = w.session(a);
                TenantScript {
                    arrival: a.arrival >> ticks_per_cycle_shift,
                    footprint_pages: s.footprint_pages,
                    records: s
                        .records
                        .iter()
                        .map(|r| ScriptOp::new(r.vaddr, r.op))
                        .collect(),
                    frees: s.frees.clone(),
                }
            })
            .collect();
        ClusterWorkload {
            name: w.name.clone(),
            tenants,
        }
    }

    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    pub fn total_ops(&self) -> usize {
        self.tenants.iter().map(|t| t.records.len()).sum()
    }

    pub fn max_arrival(&self) -> u64 {
        self.tenants.iter().map(|t| t.arrival).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itesp_trace::{benchmark, ChurnConfig};

    #[test]
    fn script_op_round_trips_vaddr_and_op() {
        for vaddr in [0, 64, 0x7fff_ffc0, !63] {
            for op in [MemOp::Read, MemOp::Write] {
                let s = ScriptOp::new(vaddr, op);
                assert_eq!((s.vaddr(), s.is_write()), (vaddr, op == MemOp::Write));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not block aligned")]
    fn script_op_rejects_an_odd_vaddr() {
        ScriptOp::new(0x41, MemOp::Read);
    }

    #[test]
    fn flattening_preserves_sessions_and_order() {
        let w = ChurnWorkload::generate(
            benchmark("mcf").unwrap(),
            &ChurnConfig {
                slots: 2,
                sessions_per_slot: 3,
                ops_per_session: 50,
                mean_arrival_gap: 1000.0,
                footprint_pages: 16,
                free_fraction: 0.3,
                seed: 7,
            },
        );
        let cw = ClusterWorkload::from_churn(&w, 4);
        assert_eq!(cw.tenant_count(), 6);
        assert_eq!(cw.total_ops(), w.total_ops());
        let first = w.session(&w.arrival_order()[0]);
        for (op, rec) in cw.tenants[0].records.iter().zip(&first.records) {
            assert_eq!(
                (op.vaddr(), op.is_write()),
                (rec.vaddr, rec.op == MemOp::Write)
            );
        }
        // Arrivals are non-decreasing: the flattening is the FIFO.
        for pair in cw.tenants.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
    }
}
