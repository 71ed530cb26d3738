//! Live enclave migration across simulated nodes.
//!
//! A [`Cluster`] hosts several [`Node`]s, each a full security stack:
//! its own [`itesp_core::SecurityEngine`], its own
//! [`itesp_enclave::EnclaveManager`], and its own physical frame
//! namespace. Tenants (enclaves with cluster-global identities) are
//! admitted FIFO, run churn-style op streams, and can be *migrated
//! live* between nodes: the source freezes the tenant, serializes its
//! per-enclave state — tree geometry, page map, counters, leaf
//! namespace, **never key material** — through the `itesp-snap` wire
//! codec, streams it as framed chunks over simulated ticks, and the
//! destination verifies the engine-config fingerprint plus a
//! per-tenant *migration epoch* before installing it and reclaiming
//! the source's leaves.
//!
//! The epoch is the headline correctness property: every committed
//! migration bumps the tenant's epoch in the cluster [`Directory`], so
//! a blob captured from a dead or stale node and replayed onto *any*
//! node fails the epoch comparison with a typed
//! [`MigrateError::EpochStale`] — cross-node anti-rollback, the
//! cluster-scale analogue of the snapshot store's
//! `StoreError::RollbackDetected`.
//!
//! Determinism contract: every per-tenant statistic in the
//! [`TenantFinal`] artifact is *placement- and timing-independent* —
//! a tenant's final ledger is byte-identical whether it ran on one
//! node, was migrated three times across four nodes, or was recovered
//! from a mid-migration crash snapshot. The `figmigrate` drill holds
//! the crate to that contract.

mod cluster;
mod directory;
mod error;
mod ledger;
mod node;
mod proto;
mod workload;

pub use cluster::{Cluster, ClusterConfig, ClusterStats, Transfer};
pub use directory::{DirEntry, Directory, Residence};
pub use error::MigrateError;
pub use ledger::{counter_checksum, fault_rng_seed, xorshift64, TenantFinal, TenantLedger};
pub use node::{node_config, Node, NodeStats};
pub use proto::{frames, peek_header, reassemble, BlobHeader, FRAME_HEADER};
pub use workload::{ClusterWorkload, ScriptOp, TenantScript};
