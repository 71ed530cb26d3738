//! # itesp-core — the ITESP secure-memory engine
//!
//! This crate implements the paper's contribution: the metadata machinery
//! of replay-protected memory integrity combined with chipkill-class
//! reliability, in all the design points the paper evaluates.
//!
//! * [`mac`] — keyed MACs (SipHash-2-4) binding data, counter, address;
//! * [`tree`] — counter-tree geometries (VAULT, Morphable, ITESP);
//! * [`counters`] — split-counter overflow tracking (Figure 11);
//! * [`cache`] — metadata caches, shared or per-enclave partitioned;
//! * [`scheme`] — the design points (Figures 8 and 11 bars, plus the
//!   SecDDR and IRO related-work baselines);
//! * [`model`] — the per-scheme traffic models (tree-walk, link-level,
//!   ORAM) behind the [`model::SchemeModel`] trait;
//! * [`engine`] — per-access metadata traffic generation;
//! * [`overhead`] — Table I storage-overhead calculator.
//!
//! ```
//! use itesp_core::{EngineConfig, Scheme, SecurityEngine};
//!
//! let mut engine = SecurityEngine::new(EngineConfig::paper_default(Scheme::Itesp));
//! // A cold read: the tree path is fetched; later accesses hit on-chip.
//! let cold = engine.on_access(0, 0x4000, 0x100, false);
//! let warm = engine.on_access(0, 0x4000, 0x100, false);
//! assert!(cold.mem.len() > warm.mem.len());
//! ```

pub mod cache;
pub mod counters;
pub mod engine;
pub mod error;
pub mod mac;
pub mod model;
pub mod overhead;
pub mod scheme;
pub mod tree;
pub mod verify;

pub use cache::{CacheOutcome, CacheStats, MetaCache, PartitionedCache};
pub use counters::{OverflowTracker, OVERFLOW_PENALTY_128};
pub use engine::{
    AccessOutcome, EngineConfig, EngineStats, MetaAccess, MetaKind, MissCase, SecurityEngine,
};
pub use error::{EngineConfigError, Error};
pub use mac::{hash_node, mac_block, siphash24, MacKey};
pub use model::{
    build_model, LinkLevelModel, OramLayout, OramModel, OramShadow, SchemeModel, TreeWalkModel,
};
pub use overhead::{table_i, OverheadRow};
pub use scheme::{LeakageClass, ModelFamily, ParityMode, Scheme, SchemeSpec, TreeKind};
pub use tree::{NodeId, TreeGeometry, NODE_BYTES};
pub use verify::{IntegrityError, Snapshot, VerifiedMemory};
