//! SecDDR-style link-level authentication (arXiv:2209.00685).
//!
//! Integrity moves from a counter tree to the DDR interface itself:
//! every transfer carries a per-link MAC in the ECC field (as in
//! Synergy's MAC-in-ECC), and replay is prevented by anti-replay
//! counters kept *on chip* on both ends of the link, so no counter is
//! ever fetched from memory. The traffic consequence is radical and is
//! the whole point of the baseline: **zero extra memory transactions**
//! and zero metadata cache pressure — every access classifies as
//! Figure 3 case A.
//!
//! Reliability is the flip side: the MAC detects a corrupted transfer
//! but carries no locate/correct information (the ECC redundancy it
//! displaced did), and there is no parity structure, so every detected
//! chip fault is uncorrectable — the RAS layer classifies it as a DUE,
//! never an SDC and never a correction.

use itesp_snap::Persist;

use crate::cache::CacheStats;
use crate::engine::{EngineConfig, MetaAccess, MetaKind, MissCase};
use crate::scheme::ModelFamily;

use super::SchemeModel;

/// The link-level [`SchemeModel`]. Stateless apart from an on-chip
/// write counter standing in for the anti-replay counter — tracked so
/// the model has an observable functional obligation (monotonicity)
/// for the oracle, at zero traffic cost.
#[derive(Debug, Persist)]
#[persist(section = "LINK", version = 1)]
pub struct LinkLevelModel {
    #[persist(skip)]
    cfg: EngineConfig,
    /// Anti-replay link counter: total authenticated transfers. Lives
    /// on chip; never generates traffic.
    transfers: u64,
}

impl LinkLevelModel {
    /// Build the model (the caller validated `cfg`).
    pub fn new(cfg: EngineConfig) -> Self {
        LinkLevelModel { cfg, transfers: 0 }
    }

    /// On-chip anti-replay counter value (authenticated transfers so
    /// far) — monotone by construction, exposed for the oracle.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }
}

impl SchemeModel for LinkLevelModel {
    fn family(&self) -> ModelFamily {
        ModelFamily::LinkLevel
    }

    fn access(
        &mut self,
        _part: usize,
        _block: u64,
        _is_write: bool,
        _mem: &mut Vec<MetaAccess>,
    ) -> (u64, MissCase) {
        // The MAC rides the ECC pins of the data transfer itself and
        // the anti-replay counter never leaves the chip: no extra
        // transactions, no stalls, nothing to miss.
        self.transfers += 1;
        (0, MissCase::A)
    }

    fn drain(&mut self, _mem: &mut Vec<MetaAccess>) {}

    fn partitions(&self) -> usize {
        1
    }

    fn tree_base(&self, _part: usize) -> u64 {
        // Degenerate empty regions directly above the data span.
        self.cfg.data_capacity
    }

    fn mac_base(&self, _part: usize) -> u64 {
        self.cfg.data_capacity
    }

    fn parity_base(&self, _part: usize) -> u64 {
        self.cfg.data_capacity
    }

    fn region_span(&self, _kind: MetaKind) -> u64 {
        0
    }

    fn tree_cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    fn detects_errors(&self) -> bool {
        // The link MAC catches any corrupted transfer...
        true
    }

    fn parity_group_share(&self) -> u64 {
        // ...but nothing can reconstruct it: detection-only.
        0
    }

    fn recovery_parity_addr(&self, _part: usize, _block: u64) -> Option<u64> {
        None
    }
}
